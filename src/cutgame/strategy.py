"""Both players' strategies.

The marker plays two phases.  A preparatory phase marks dummies (or the
endpoints of the lone uniquely appearing edge) until the cutter has
twice declined a genus-reducing reply; that leaves a two-cycle with two
uniquely appearing labels, the first *active* cycle.  The potential
bounding phase then walks a twelve-state automaton of active-cycle
configurations; every cycle through the automaton gains four labels
while burning three genus, which pins the game value near 4/3 of the
starting genus.

Configurations are templates over three kinds of atoms: a uniquely
appearing edge (``"U"``), a nesting path (``"N"``), and shared labels
(small integers, each occurring twice among the active cycles).  The
automaton is one table, ``TEMPLATES``: each configuration's arrows name
the next configuration and where each of its active cycles comes from,
and ``MarkerStrategy._advance_bounding`` applies them.  A nesting path
is bound as its run of one or three edge positions; the passive cycles
that support a three-edge run are read off its labels, by
``potential.nesting_supports``, when a reply discards the run.  The
refinement for seeded games additionally lets a three-edge path whose
outer label is isolated stand in for a uniquely appearing edge (a
*pseudo edge*), re-anchoring it when the genus counter hits the two
awkward values.

The cutter's counter-strategy plays only the reply classes the
potential accounting licenses, and only replies that keep it from rising.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .core import (
    CutterReply,
    Edge,
    GameState,
    MarkedState,
    Vertex,
    split_cycle,
    uniquely_appearing_labels,
)
# unused here; the binding stays because perfbench's tracer test reads
# strategy.legal_replies
from .equivalence import legal_replies  # noqa: F401
from .potential import QUARTER, is_nesting_path, nesting_supports, segment_potential, state_potential, xtzt_start


# ---------------------------------------------------------------------------
# configuration templates

Atom = Union[str, int]  # "U", "N", or a shared-label variable


class Template(NamedTuple):
    """A configuration: its active cycles' atoms, the (cycle, atom) pair
    the marker marks, and per reply kind the arrow it takes.

    An arrow is ``(target, sources)`` with one source per cycle of the
    target's ``cycles``, saying where that active cycle comes from:

    * ``a``: active cycle ``a``, carried whole through the reply;
    * a tuple with one entry per target atom, each entry one of
      ``(a, i)``, atom ``i`` of active cycle ``a`` mapped through the
      reply; ``"f"`` or ``"g"``, the reply's first or second new edge;
      or ``("run", e1, e2, e3)``, a three-edge nesting path whose
      entries are placed like atoms;
    * ``("xz", a, i)`` or ``("y", a, i)``: a supporting cycle of the
      nesting path at atom ``i`` of active cycle ``a``, which the reply
      discarded; the (x, t, z, t) cycle reads (t, U, t, U) and the
      y-cycle (U, N).  Both are located by ``nesting_supports`` on the
      pre-reply state.

    The new cycle of a placed source is where its atoms land.  A kind
    with no arrow is refused: configurations 1 and 8 have no C arrow
    and 4 no B arrow, because against the mark those replies only
    rename (4-B also contracts) edges of the current state, which
    restricted legality forbids.  The atoms are stated here only; a
    bound phase's :class:`ActiveCycle` holds positions.
    """

    cycles: tuple[tuple[Atom, ...], ...]
    mark: tuple[tuple[int, int], tuple[int, int]]
    arrows: dict[str, tuple[int, tuple]]


TEMPLATES: dict[int, Template] = {
    1: Template((("U", "N"),), ((0, 0), (0, 1)), {
        "A": (2, (("f", (0, 0)), ("g", (0, 1)))),
        "B": (10, (("y", 0, 1), ("xz", 0, 1), ((0, 0), "f"))),
    }),
    2: Template(((0, "U"), (0, "N")), ((0, 0), (1, 1)), {
        "D": (3, (((1, 1), (1, 0), "g", (0, 0), (0, 1), "f"),)),
    }),
    3: Template((("N", 0, 1, 0, "U", 1),), ((0, 1), (0, 4)), {
        "A": (4, (((0, 1), (0, 2), (0, 3), "f"), ((0, 0), "g", (0, 4), (0, 5)))),
    }),
    4: Template(((0, 1, 0, 2), ("N", 2, "U", 1)), ((1, 0), (1, 1)), {
        "A": (1, (((1, 2), ("run", (1, 3), "g", (1, 1))),)),
        "C": (5, (0, ("f", (1, 1), (1, 2), (1, 3)), ("xz", 1, 0), ("y", 1, 0))),
    }),
    5: Template(((0, 1, 0, 2), ("U", 2, "U", 1), (3, "U", 3, "U"), ("U", "N")), ((2, 1), (2, 2)), {
        "A": (6, (0, 1, 3, ("f", (2, 1)), ((2, 2), (2, 3), (2, 0), "g"))),
    }),
    6: Template(((0, 1, 0, 2), ("U", 2, "U", 1), ("U", "N"), (4, "U"), (3, "U", 3, 4)), ((4, 1), (4, 2)), {
        "A": (7, (0, 1, 2)),
    }),
    7: Template(((0, 1, 0, 2), ("U", 2, "U", 1), ("U", "N")), ((1, 0), (1, 1)), {
        "A": (8, (0, 2, ("f", (1, 0)), ("g", (1, 1), (1, 2), (1, 3)))),
    }),
    8: Template(((0, 1, 0, 2), ("U", "N"), (3, "U"), (3, 2, "U", 1)), ((3, 2), (3, 3)), {
        "A": (1, (1,)),
        "B": (9, (1, 0, 2, ((3, 2), "f"))),
    }),
    9: Template((("U", "N"), (0, "U", 0, "U"), ("U", "U"), ("U", "U")), ((2, 0), (2, 1)), {
        "A": (10, (0, 1, 3)),
    }),
    10: Template((("U", "N"), (0, "U", 0, "U"), ("U", "U")), ((1, 1), (1, 2)), {
        "A": (11, (0, 2, ("f", (1, 1)), ((1, 0), "g", (1, 2), (1, 3)))),
    }),
    11: Template((("U", "N"), ("U", "U"), (1, "U"), (0, 1, 0, "U")), ((3, 3), (3, 0)), {"A": (12, (0, 1))}),
    12: Template((("U", "N"), ("U", "U")), ((1, 0), (1, 1)), {"A": (1, (0,))}),
}

# configurations whose positive active potentials sum to the cap (quarters)
ACTIVE_SUM_CAP = 5 * QUARTER
CAP_CONFIGS = {5, 9}


# ---------------------------------------------------------------------------
# phases
#
# The phase types are named tuples, so the marker search merges equal
# phases by tuple equality.  It compares phases only with phases, and no
# two phase types compare equal: they hold 0, 1 and 2 fields.


class ActiveCycle(NamedTuple):
    """One active component bound to a template cycle.

    ``pos`` parallels the atoms of the bound phase's template cycle,
    ``TEMPLATES[config].cycles[a]`` for active cycle ``a``: an edge
    position for "U" and variable atoms, and for "N" atoms a run, the
    tuple of one or three positions of the nesting path in path order.
    """

    cycle: int
    pos: tuple

    def mark_vertex(self, atom_idx: int) -> Vertex:
        p = self.pos[atom_idx]
        return (self.cycle, p if isinstance(p, int) else p[0])


class BoundingPhase(NamedTuple):
    """A configuration of the automaton and its active cycles, bound.  A
    shared-label variable's label is the one its bound edges read."""

    config: int
    actives: tuple[ActiveCycle, ...]


class PreparatoryPhase(NamedTuple):
    """Before the automaton: ``non_a_replies`` counts the cutter's replies
    that declined to burn genus."""

    non_a_replies: int = 0


class SeedPhase(NamedTuple):
    """Refined opening: about to mark the lone uniquely appearing edge of
    the four-cycle seed whose split is forced."""


class SwitchToCops:
    """Refined-game verdict: hand the pursuit back to three fresh cops.
    It holds nothing (an empty named tuple would equal ``SeedPhase()``):
    the audits read the value and genus off the state it is reached in."""

    __slots__ = ()


class StrategyError(Exception):
    """A strategy invariant failed: bindings, templates or transitions."""


Phase = Union[PreparatoryPhase, SeedPhase, BoundingPhase]


# ---------------------------------------------------------------------------
# binding translation through a reply


def _gather(placed: list[Edge], what: str) -> tuple[int, tuple[int, ...]]:
    """(new cycle, positions) of edges placed by a reply, which must all
    land on one cycle."""
    if len({ci for ci, _ in placed}) != 1:
        raise StrategyError(f"{what} split across cycles")
    return placed[0][0], tuple(p for _, p in placed)


def _support(source: tuple, phase: BoundingPhase, state: GameState, reply: CutterReply,
             emap: dict[Edge, Edge]) -> tuple[int, tuple]:
    """(new cycle, positions) of a supporting cycle that becomes active
    when the reply discards the nesting path (x, y, z) at ``source``:
    the (x, t, z, t) cycle read as (t, U, t, U) from its first t, or the
    y-cycle as (U, N)."""
    which, a, i = source
    ac = phase.actives[a]
    supports = nesting_supports(state, ac.cycle, ac.pos[i])
    if supports is None:
        raise StrategyError("discarded nesting path has no supporting cycles")
    xz_cycle, y_edge, inner = supports
    if which == "xz":
        x, _, z = (state.cycles[ac.cycle][p] for p in ac.pos[i])
        host = emap[(xz_cycle, 0)][0]  # a passive support is carried whole
        r = xtzt_start(reply.next.cycles[host], x, z)
        if r is None:
            raise StrategyError(f"no (x,t,z,t) reading with x={x}, z={z}")
        return host, ((r + 1) % 4, (r + 2) % 4, (r + 3) % 4, r)
    host, run = _gather([emap[y_edge]] + [emap[(y_edge[0], p)] for p in inner], "y-cycle")
    return host, (run[0], run[1:])


# ---------------------------------------------------------------------------
# the marker strategy


class MarkerStrategy:
    """Deterministic marker play: preparatory phase plus the automaton.

    ``refined=True`` plays the seeded variant: the opening four-cycle is
    split at its lone uniquely appearing short side and a pseudo edge
    carries the automaton, switching to the cops when configuration 2
    shows up at genus one and re-anchoring the pseudo edge at genus four.
    """

    def __init__(self, refined: bool = False):
        self.refined = refined

    def initial_phase(self, state: GameState) -> Phase:
        return SeedPhase() if self.refined else PreparatoryPhase()

    # -- marking ----------------------------------------------------------

    def mark(self, phase: Phase, state: GameState) -> MarkedState:
        if isinstance(phase, PreparatoryPhase):
            return self._prep_mark(state)
        if isinstance(phase, SeedPhase):
            return self._seed_mark(state)
        (c1, a1), (c2, a2) = TEMPLATES[phase.config].mark
        return MarkedState(state, phase.actives[c1].mark_vertex(a1), phase.actives[c2].mark_vertex(a2))

    def _prep_mark(self, state: GameState) -> MarkedState:
        uniq = uniquely_appearing_labels(state)
        if not uniq:
            return MarkedState(state, None, None, same_dummy=True)
        if len(uniq) > 1:
            raise StrategyError(f"preparatory phase with {len(uniq)} unique labels")
        lab = next(iter(uniq))
        for ci, cyc in enumerate(state.cycles):
            for p, l in enumerate(cyc):
                if l == lab:
                    return MarkedState(state, (ci, p), (ci, (p + 1) % len(cyc)))
        raise AssertionError("unreachable")

    def _seed_mark(self, state: GameState) -> MarkedState:
        if len(state.cycles) != 1 or len(state.cycles[0]) != 4:
            raise StrategyError("refined strategy requires the four-cycle seed")
        cyc = state.cycles[0]
        counts = state.label_counts()
        doubled = [lab for lab, n in counts.items() if n == 2]
        if len(doubled) != 1:
            raise StrategyError("seed must carry exactly one repeated label")
        rep = doubled[0]
        reps = [p for p, l in enumerate(cyc) if l == rep]
        if (reps[1] - reps[0]) % 4 != 2:
            raise StrategyError("seed's repeated label must sit on opposite edges")
        # mark the endpoints of the short side after the second repeat,
        # i.e. the edge sandwiched alone between the two repeated edges
        p = (reps[1] + 1) % 4
        return MarkedState(state, (0, p), (0, (p + 1) % 4))

    # -- advancing the phase ----------------------------------------------

    def advance(self, phase: Phase, state: GameState, reply: CutterReply) -> Union[Phase, SwitchToCops]:
        """Phase after the cutter's reply (``state`` is the pre-reply state)."""
        if isinstance(phase, PreparatoryPhase):
            return self._advance_prep(phase, reply)
        if isinstance(phase, SeedPhase):
            return self._advance_seed(reply)
        nxt = self._advance_bounding(phase, state, reply)
        if self.refined and isinstance(nxt, BoundingPhase) and nxt.config == 2:
            if reply.next.genus == 1:
                return SwitchToCops()
            if reply.next.genus == 4:
                return self._rebind_pseudo(nxt, reply.next)
        return nxt

    def _advance_prep(self, phase: PreparatoryPhase, reply: CutterReply) -> Phase:
        if reply.kind == "A":
            return phase
        if reply.kind == "D":
            raise StrategyError("preparatory marks never span two components")
        if phase.non_a_replies == 0:
            return PreparatoryPhase(1)
        if reply.kind != "B":
            raise StrategyError("second declining reply must keep the marked edge")
        kept = reply.derived[0]
        f_pos = reply.new_edges[0][1]
        u_pos = 1 - f_pos
        active = ActiveCycle(kept, (u_pos, (f_pos,)))
        return BoundingPhase(1, (active,))

    def _advance_seed(self, reply: CutterReply) -> Phase:
        if reply.kind != "A":
            raise StrategyError("the seed split is forced to burn genus")
        c2 = reply.derived[1]
        # the kept long side reads (x, u, x, new): u is the unique edge,
        # the (x, new, x) run becomes the pseudo edge
        cyc = reply.next.cycles[c2]
        counts = reply.next.label_counts()
        u_pos = [p for p, l in enumerate(cyc) if counts[l] == 1]
        if len(u_pos) != 1:
            raise StrategyError("seed split left more than one unique label on the long side")
        u = u_pos[0]
        run = tuple((u + 1 + i) % 4 for i in range(3))
        active = ActiveCycle(c2, (u, run))
        return BoundingPhase(1, (active,))

    def _rebind_pseudo(self, phase: BoundingPhase, state: GameState) -> BoundingPhase:
        # the pseudo edge is the innermost path of the nesting chain
        host, run = phase.actives[1].cycle, phase.actives[1].pos[1]
        seen = set()
        while (supports := nesting_supports(state, host, run)) is not None:
            if (host, run) in seen:
                raise StrategyError("nesting supports lead back to a run already read")
            seen.add((host, run))
            _, (host, _), run = supports
        cyc = state.cycles[host]
        if len(run) != 3 or not cyc[run[0]] == cyc[run[2]] != cyc[run[1]]:
            raise StrategyError("refined play lost track of the pseudo edge")
        if len(cyc) != 4:
            raise StrategyError("pseudo carrier is not a four-cycle")
        mid_pos = run[1]
        q_pos = next(p for p in range(4) if p not in run)
        mid = cyc[mid_pos]
        partner = [
            (ci, p)
            for ci, c in enumerate(state.cycles)
            for p, l in enumerate(c)
            if l == mid and ci != host
        ]
        if len(partner) != 1:
            raise StrategyError("pseudo middle label has no partner cycle")
        pci, pp = partner[0]
        pcyc = state.cycles[pci]
        if len(pcyc) != 2:
            raise StrategyError("pseudo partner is not a two-cycle")
        other = pcyc[1 - pp]
        if state.label_counts()[other] != 1:
            raise StrategyError("pseudo partner's second label is not unique")
        rebound = (run[2], q_pos, run[0])
        c0 = ActiveCycle(pci, (pp, 1 - pp))
        c1 = ActiveCycle(host, (mid_pos, rebound))
        return BoundingPhase(2, (c0, c1))

    # -- the transition table ---------------------------------------------

    def _advance_bounding(self, phase: BoundingPhase, state: GameState, reply: CutterReply) -> BoundingPhase:
        """Apply the arrow of ``TEMPLATES`` for this reply's kind."""
        arrow = TEMPLATES[phase.config].arrows.get(reply.kind)
        if arrow is None:
            raise StrategyError(f"configuration {phase.config} cannot absorb a kind-{reply.kind} reply")
        target, sources = arrow
        emap = dict(reply.edge_map)  # where each surviving old edge landed

        def place(entry) -> tuple[int, object]:
            """(new cycle, edge position or run) of one atom."""
            if entry == "f" or entry == "g":
                return reply.new_edges[entry == "g"]
            if entry[0] == "run":
                return _gather([place(e) for e in entry[1:]], "nesting path")
            a, i = entry
            ac = phase.actives[a]
            p = ac.pos[i]
            if isinstance(p, int):
                return emap[(ac.cycle, p)]
            return _gather([emap[(ac.cycle, q)] for q in p], "nesting path")

        actives = []
        for atoms, source in zip(TEMPLATES[target].cycles, sources, strict=True):
            if isinstance(source, int):
                source = tuple((source, i) for i in range(len(atoms)))
            if source[0] == "xz" or source[0] == "y":
                cycle, pos = _support(source, phase, state, reply, emap)
            else:
                cycle, pos = _gather([place(e) for e in source], "active cycle")
            actives.append(ActiveCycle(cycle, pos))
        return BoundingPhase(target, tuple(actives))


# ---------------------------------------------------------------------------
# configuration verification and independent classification


def verify_bindings(state: GameState, phase: BoundingPhase, allow_pseudo: bool = False) -> None:
    """Structural audit of a bound configuration, atom by atom; raises
    StrategyError.  An ``"N"`` atom must hold a run of one or three
    positions that forms a nesting path by ``is_nesting_path``, a ``"U"``
    atom or a variable an edge position, and each cycle's atoms must
    read its edges in order, once round from the first atom's.  Every
    bound cycle and position must exist in ``state``."""
    template = TEMPLATES[phase.config]
    if len(phase.actives) != len(template.cycles):
        raise StrategyError("active count does not match the template")
    counts = state.label_counts()
    var_labels: dict[int, int] = {}
    for ac, atoms in zip(phase.actives, template.cycles):
        if len(ac.pos) != len(atoms):
            raise StrategyError(f"{len(ac.pos)} positions bound to template cycle {atoms}")
        cyc = _bound_cycle(state, ac.cycle)
        covered: list[int] = []
        for atom, p in zip(atoms, ac.pos):
            if atom == "N":
                if not (isinstance(p, tuple) and len(p) in (1, 3)):
                    raise StrategyError(f"nesting atom bound to {p!r}, not a run of one or three edges")
                for q in p:
                    _bound_label(cyc, q)
                if not is_nesting_path(state, ac.cycle, p, allow_pseudo):
                    raise StrategyError(f"run {p} of cycle {ac.cycle} is not a nesting path")
                covered.extend(p)
                continue
            if not isinstance(p, int):
                raise StrategyError(f"atom {atom!r} bound to {type(p).__name__}, not an edge position")
            covered.append(p)
            lab = _bound_label(cyc, p)
            if atom == "U":
                if counts[lab] != 1:
                    raise StrategyError(f"label {lab} bound as unique appears {counts[lab]} times")
            else:
                bound = var_labels.setdefault(atom, lab)
                if bound != lab:
                    raise StrategyError(f"variable {atom} bound to {bound} but edge reads {lab}")
        if covered != [(covered[0] + k) % len(cyc) for k in range(len(cyc))]:
            raise StrategyError(f"atoms do not read cycle {ac.cycle} in order")


def _bound_cycle(state: GameState, ci: object) -> tuple[int, ...]:
    """The cycle a binding names; a missing one is a StrategyError."""
    if not (isinstance(ci, int) and 0 <= ci < len(state.cycles)):
        raise StrategyError(f"binding references missing cycle {ci!r}")
    return state.cycles[ci]


def _bound_label(cyc: tuple[int, ...], p: object) -> int:
    """The label at a bound position; one off the cycle is a
    StrategyError, not an index into it."""
    if not (isinstance(p, int) and 0 <= p < len(cyc)):
        raise StrategyError(f"bound position {p!r} is off a cycle of {len(cyc)} edges")
    return cyc[p]


def _readers(components: tuple[int, ...], atoms: tuple[Atom, ...], state: GameState) -> list[int]:
    """The components among ``components``, in order, whose length a
    template cycle ``atoms`` can read: an ``"N"`` atom reads one or three
    edges and every other atom one, so the length lies in
    ``len(atoms) .. len(atoms) + 2·count("N")``."""
    shortest = len(atoms)
    longest = shortest + 2 * atoms.count("N")
    return [ci for ci in components if shortest <= len(state.cycles[ci]) <= longest]


def classify_configuration(active_cycles: tuple[int, ...], state: GameState,
                           allow_pseudo: bool = False) -> Optional[int]:
    """Match a set of active components against the twelve templates.

    Works from scratch: each template cycle is read from every rotation
    start of its component, atom by atom.  ``"U"`` takes one uniquely
    appearing edge, ``"N"`` a run of one or three edges that forms a
    nesting path by its definition, and a variable one shared edge whose
    label agrees with the variables read so far.  The template cycles
    are assigned in turn by backtracking: each takes any component not
    yet used whose length lies in its window (``_readers``), under each
    variable map its readings yield.  That tries the components in
    every order, sharing each order's prefix with the others.  Returns
    the configuration id or None.
    """
    counts = state.label_counts()

    def readings(ci: int, atoms: tuple[Atom, ...], p: int, left: int, var_map: dict):
        """Extensions of ``var_map`` under which ``atoms`` read the
        ``left`` edges of cycle ``ci`` from position ``p`` on."""
        if not atoms:
            if left == 0:
                yield var_map
            return
        atom, rest = atoms[0], atoms[1:]
        cyc = state.cycles[ci]
        n = len(cyc)
        if atom == "N":
            for size in (1, 3):
                run = tuple((p + k) % n for k in range(size))
                if size + len(rest) <= left and is_nesting_path(state, ci, run, allow_pseudo):
                    yield from readings(ci, rest, (p + size) % n, left - size, var_map)
            return
        if left <= len(rest):
            return
        lab = cyc[p]
        if atom == "U":
            if counts[lab] == 1:
                yield from readings(ci, rest, (p + 1) % n, left - 1, var_map)
        elif counts[lab] != 1 and var_map.get(atom, lab) == lab:
            yield from readings(ci, rest, (p + 1) % n, left - 1, {**var_map, atom: lab})

    def assign(tcycles: tuple[tuple[Atom, ...], ...], free: tuple[int, ...], var_map: dict) -> bool:
        """Whether ``tcycles`` read distinct components of ``free`` under
        one extension of ``var_map``."""
        if not tcycles:
            return True
        atoms, rest = tcycles[0], tcycles[1:]
        for ci in _readers(free, atoms, state):
            i = free.index(ci)
            others, n = free[:i] + free[i + 1:], len(state.cycles[ci])
            if any(assign(rest, others, vm) for start in range(n) for vm in readings(ci, atoms, start, n, var_map)):
                return True
        return False

    for cfg_id, template in TEMPLATES.items():
        if len(template.cycles) == len(active_cycles) and assign(template.cycles, active_cycles, {}):
            return cfg_id
    return None


# ---------------------------------------------------------------------------
# the cutter strategy


_HALF = -QUARTER // 2  # -1/2, the rich/poor threshold of an arc


def cutter_move(marked: MarkedState, legal: list[CutterReply]) -> tuple[CutterReply, bool]:
    """The reply, among the legal replies ``legal`` to ``marked``, that
    keeps the potential from rising.

    Plays the best licensed reply that does not raise the potential:
    burn genus when both arcs are rich, amalgamate across components,
    discard a poor arc, ranked in that order.  When there is none — which
    the accounting rules out while its preconditions hold — the
    minimal-potential legal reply is returned with the anomaly flag set.
    An empty ``legal`` raises ``ValueError``.
    """
    if not legal:
        raise ValueError("no legal replies: the game is over")
    state = marked.state
    p_now = state_potential(state)

    licensed: list[CutterReply] = []
    if not marked.same_component():
        licensed = [r for r in legal if r.kind == "D"]
    else:
        ci, arcs = None, ((), ())  # a dummy marked twice has two empty arcs
        if marked.v is not None:
            ci = marked.v[0]
            arcs = split_cycle(state.cycles[ci], marked.v[1], marked.w[1])
        p_p, p_q = [segment_potential(state, ci, arc) for arc in arcs]
        for r in legal:
            if r.kind == "A" and p_p >= _HALF and p_q >= _HALF:
                licensed.append(r)
            elif r.kind == "B" and p_q < _HALF:
                licensed.append(r)
            elif r.kind == "C" and p_p < _HALF:
                licensed.append(r)

    # every legal reply raises the value by exactly one, so the rank decides
    rank = {"A": 0, "D": 1, "B": 2, "C": 3}
    good = [r for r in licensed if state_potential(r.next) <= p_now]
    if good:
        return min(good, key=lambda r: rank[r.kind]), False
    return min(legal, key=lambda r: (state_potential(r.next), rank[r.kind])), True

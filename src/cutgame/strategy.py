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
and ``MarkerStrategy._advance_bounding`` applies them.  The
refinement for seeded games additionally lets a three-edge path whose
outer label is isolated stand in for a uniquely appearing edge (a
*pseudo edge*), re-anchoring it when the genus counter hits the two
awkward values.

The cutter's counter-strategy simply refuses to let the potential rise,
preferring whichever reply class the potential accounting licenses.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Union

from .core import (
    CutterReply,
    Edge,
    GameState,
    MarkedState,
    Vertex,
    split_cycle,
    uniquely_appearing_labels,
    value,
)
# unused here; the binding stays because perfbench's tracer test reads
# strategy.legal_replies
from .equivalence import legal_replies  # noqa: F401
from .potential import Segment, _cycle_matches_xtzt, is_nesting_path, segment_potential, state_potential


# ---------------------------------------------------------------------------
# nesting-path bindings
#
# The binding, phase and template types of this module are plain classes:
# they are built per ply or once, and never compared or hashed.


class NestUnique:
    """A nesting path that is a single uniquely appearing edge."""

    __slots__ = ("pos",)

    def __init__(self, pos: int):
        self.pos = pos


class NestPseudo:
    """A pseudo edge: run (x, m, x) with x isolated on the host cycle."""

    __slots__ = ("run",)

    def __init__(self, run: tuple[int, int, int]):
        self.run = run


class NestChain:
    """A three-edge nesting path with its supporting passive cycles.

    ``run`` holds the host positions of the (x, y, z) edges in path
    order.  ``xz_cycle`` reads (x, t, z, t); ``y_cycle`` consists of the
    other y-edge plus ``inner``, a nesting path on that cycle.
    """

    __slots__ = ("run", "xz_cycle", "y_cycle", "inner")

    def __init__(self, run: tuple[int, int, int], xz_cycle: int, y_cycle: int, inner: "Nesting"):
        self.run, self.xz_cycle, self.y_cycle, self.inner = run, xz_cycle, y_cycle, inner


Nesting = Union[NestUnique, NestPseudo, NestChain]


def nesting_positions(binding: Nesting) -> tuple[int, ...]:
    return (binding.pos,) if isinstance(binding, NestUnique) else binding.run


# ---------------------------------------------------------------------------
# configuration templates

Atom = Union[str, int]  # "U", "N", or a shared-label variable


class Template:
    """A configuration: its active cycles' atoms, the (cycle, atom) pair
    the marker marks, and per reply kind the arrow it takes.

    An arrow is ``(target, sources)`` with one source per cycle of the
    target's ``cycles``, saying where that active cycle comes from:

    * ``a``: active cycle ``a``, carried whole through the reply;
    * a tuple with one entry per target atom, each entry one of
      ``(a, i)``, atom ``i`` of active cycle ``a`` mapped through the
      reply; ``"f"`` or ``"g"``, the reply's first or second new edge;
      or ``("chain", run, a, (b, i))``, a three-edge nesting path whose
      run entries are placed like atoms, whose (x, t, z, t) support is
      active cycle ``a`` and whose inner path is atom ``i`` of active
      cycle ``b``;
    * ``("xz", a, i)`` or ``("y", a, i)``: a supporting cycle of the
      nesting path at atom ``i`` of active cycle ``a``, which the reply
      discarded; the (x, t, z, t) cycle reads (t, U, t, U) and the
      y-cycle (U, N).

    The new cycle of a placed source is where its atoms land.  A kind
    with no arrow is refused: configurations 1 and 8 have no C arrow
    and 4 no B arrow, because against the mark those replies only
    rename (4-B also contracts) edges of the current state, which
    restricted legality forbids.  The atoms are stated here only; a
    bound phase's :class:`ActiveCycle` holds positions.
    """

    __slots__ = ("cycles", "mark", "arrows")

    def __init__(self, cycles: tuple[tuple[Atom, ...], ...], mark: tuple[tuple[int, int], tuple[int, int]],
                 arrows: dict[str, tuple[int, tuple]]):
        self.cycles, self.mark, self.arrows = cycles, mark, arrows


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
        "A": (1, (((1, 2), ("chain", ((1, 3), "g", (1, 1)), 0, (1, 0))),)),
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

# configurations whose positive active potentials sum to the cap
ACTIVE_SUM_CAP = Fraction(5)
CAP_CONFIGS = {5, 9}


class ActiveCycle:
    """One active component bound to a template cycle.

    ``pos`` parallels the atoms of the bound phase's template cycle,
    ``TEMPLATES[config].cycles[a]`` for active cycle ``a``: an edge
    position for "U" and variable atoms, a :class:`Nesting` binding for
    "N" atoms.
    """

    __slots__ = ("cycle", "pos")

    def __init__(self, cycle: int, pos: tuple):
        self.cycle, self.pos = cycle, pos

    def mark_vertex(self, atom_idx: int) -> Vertex:
        p = self.pos[atom_idx]
        if isinstance(p, int):
            return (self.cycle, p)
        return (self.cycle, nesting_positions(p)[0])


class BoundingPhase:
    """A configuration of the automaton and its active cycles, bound.  A
    shared-label variable's label is the one its bound edges read."""

    __slots__ = ("config", "actives")

    def __init__(self, config: int, actives: tuple[ActiveCycle, ...]):
        self.config, self.actives = config, actives


class PreparatoryPhase:
    """Before the automaton: ``non_a_replies`` counts the cutter's replies
    that declined to burn genus."""

    __slots__ = ("non_a_replies",)

    def __init__(self, non_a_replies: int = 0):
        self.non_a_replies = non_a_replies


class SeedPhase:
    """Refined opening: about to mark the lone uniquely appearing edge of
    the four-cycle seed whose split is forced."""

    __slots__ = ()


class SwitchToCops:
    """Refined-game verdict: hand the pursuit back to three fresh cops."""

    __slots__ = ("value", "genus")

    def __init__(self, value: int, genus: int):
        self.value, self.genus = value, genus


class StrategyError(Exception):
    """A strategy invariant failed: bindings, templates or transitions."""


Phase = Union[PreparatoryPhase, SeedPhase, BoundingPhase]


# ---------------------------------------------------------------------------
# binding translation through a reply


def _translate_nesting(binding: Nesting, host: int, emap: dict[Edge, Edge],
                       cmap: dict[int, int]) -> tuple[int, Nesting]:
    """Map a nesting binding through a reply.  Returns (new host, binding)."""
    if isinstance(binding, NestUnique):
        nci, npos = emap[(host, binding.pos)]
        return nci, NestUnique(npos)
    mapped = [emap[(host, p)] for p in binding.run]
    if len({ci for ci, _ in mapped}) != 1:
        what = "pseudo edge" if isinstance(binding, NestPseudo) else "nesting path"
        raise StrategyError(f"{what} split across cycles")
    run = tuple(p for _, p in mapped)
    if isinstance(binding, NestPseudo):
        return mapped[0][0], NestPseudo(run)
    y_host, inner = _translate_nesting(binding.inner, binding.y_cycle, emap, cmap)
    return mapped[0][0], NestChain(run, cmap[binding.xz_cycle], y_host, inner)


def _support(source: tuple, phase: BoundingPhase, state: GameState, reply: CutterReply,
             emap: dict[Edge, Edge], cmap: dict[int, int]) -> tuple[int, tuple]:
    """(new cycle, positions) of a supporting cycle that becomes active
    when the reply discards the nesting path (x, y, z) at ``source``:
    the (x, t, z, t) cycle read as (t, U, t, U) from its first t, or the
    y-cycle as (U, N)."""
    which, a, i = source
    ac = phase.actives[a]
    chain = ac.pos[i]
    if not isinstance(chain, NestChain):
        raise StrategyError("discarded nesting path has no supporting cycles")
    x, y, z = (state.cycles[ac.cycle][p] for p in chain.run)
    if which == "xz":
        host = cmap[chain.xz_cycle]
        cyc = reply.next.cycles[host]
        n = len(cyc)
        for r in range(n):
            if cyc[r] == x and cyc[(r + 2) % n] == z and cyc[(r + 1) % n] == cyc[(r + 3) % n]:
                return host, ((r + 1) % n, (r + 2) % n, (r + 3) % n, r)
        raise StrategyError(f"no (x,t,z,t) reading with x={x}, z={z}")
    host = cmap[chain.y_cycle]
    _, inner = _translate_nesting(chain.inner, chain.y_cycle, emap, cmap)
    inner_run = set(nesting_positions(inner))
    y_cyc = reply.next.cycles[host]
    y_edge = [p for p in range(len(y_cyc)) if p not in inner_run]
    if len(y_edge) != 1 or y_cyc[y_edge[0]] != y:
        raise StrategyError("y-cycle is not one y-edge plus the nesting path")
    return host, (y_edge[0], inner)


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
        if self.refined:
            return SeedPhase()
        return PreparatoryPhase(0)

    # -- marking ----------------------------------------------------------

    def mark(self, phase: Phase, state: GameState) -> MarkedState:
        if isinstance(phase, PreparatoryPhase):
            return self._prep_mark(state)
        if isinstance(phase, SeedPhase):
            return self._seed_mark(state)
        template = TEMPLATES[phase.config]
        (c1, a1), (c2, a2) = template.mark
        v = phase.actives[c1].mark_vertex(a1)
        w = phase.actives[c2].mark_vertex(a2)
        return MarkedState(state, v, w)

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
                return SwitchToCops(value=value(reply.next), genus=1)
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
        active = ActiveCycle(kept, (u_pos, NestUnique(f_pos)))
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
        active = ActiveCycle(c2, (u, NestPseudo(run)))
        return BoundingPhase(1, (active,))

    def _rebind_pseudo(self, phase: BoundingPhase, state: GameState) -> BoundingPhase:
        host = phase.actives[1].cycle
        node = phase.actives[1].pos[1]
        while isinstance(node, NestChain):
            host = node.y_cycle
            node = node.inner
        if not isinstance(node, NestPseudo):
            raise StrategyError("refined play lost track of the pseudo edge")
        cyc = state.cycles[host]
        if len(cyc) != 4:
            raise StrategyError("pseudo carrier is not a four-cycle")
        run = node.run
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
        rebound = NestPseudo((run[2], q_pos, run[0]))
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
        # where each surviving old edge landed, and where each old cycle's
        # first surviving edge did
        emap = dict(reply.edge_map)
        cmap = {oci: nci for (oci, _), (nci, _) in reversed(reply.edge_map)}

        def place(entry) -> tuple[int, object]:
            """(new cycle, edge position or nesting binding) of one atom."""
            if entry == "f" or entry == "g":
                return reply.new_edges[entry == "g"]
            if entry[0] == "chain":
                _, run, a, (b, i) = entry
                placed = [place(e) for e in run]
                if len({ci for ci, _ in placed}) != 1:
                    raise StrategyError("nesting path split across cycles")
                inner_ac = phase.actives[b]
                y_cycle, inner = _translate_nesting(inner_ac.pos[i], inner_ac.cycle, emap, cmap)
                chain = NestChain(tuple(p for _, p in placed), cmap[phase.actives[a].cycle], y_cycle, inner)
                return placed[0][0], chain
            a, i = entry
            ac = phase.actives[a]
            p = ac.pos[i]
            if isinstance(p, int):
                return emap[(ac.cycle, p)]
            return _translate_nesting(p, ac.cycle, emap, cmap)

        actives = []
        for atoms, source in zip(TEMPLATES[target].cycles, sources, strict=True):
            if isinstance(source, int):
                source = tuple((source, i) for i in range(len(atoms)))
            if source[0] == "xz" or source[0] == "y":
                cycle, pos = _support(source, phase, state, reply, emap, cmap)
            else:
                placed = [place(e) for e in source]
                if len({ci for ci, _ in placed}) != 1:
                    raise StrategyError("active cycle split unexpectedly")
                cycle, pos = placed[0][0], tuple(p for _, p in placed)
            actives.append(ActiveCycle(cycle, pos))
        return BoundingPhase(target, tuple(actives))


# ---------------------------------------------------------------------------
# configuration verification and independent classification


def verify_bindings(state: GameState, phase: BoundingPhase, allow_pseudo: bool = False) -> None:
    """Structural audit of a bound configuration; raises StrategyError."""
    template = TEMPLATES[phase.config]
    if len(phase.actives) != len(template.cycles):
        raise StrategyError("active count does not match the template")
    counts = state.label_counts()
    var_labels: dict[int, int] = {}
    var_seen: dict[int, int] = {}
    for ac, atoms in zip(phase.actives, template.cycles):
        if len(ac.pos) != len(atoms):
            raise StrategyError(f"{len(ac.pos)} positions bound to template cycle {atoms}")
        if not (0 <= ac.cycle < len(state.cycles)):
            raise StrategyError("active references a missing cycle")
        cyc = state.cycles[ac.cycle]
        covered: list[int] = []
        for atom, p in zip(atoms, ac.pos):
            if isinstance(p, int):
                covered.append(p)
                lab = cyc[p]
                if atom == "U":
                    if counts[lab] != 1:
                        raise StrategyError(f"label {lab} bound as unique appears {counts[lab]} times")
                else:
                    bound = var_labels.setdefault(atom, lab)
                    if bound != lab:
                        raise StrategyError(f"variable {atom} bound to {bound} but edge reads {lab}")
                    var_seen[atom] = var_seen.get(atom, 0) + 1
            else:
                covered.extend(nesting_positions(p))
                _verify_nesting(state, ac.cycle, p, allow_pseudo)
        if sorted(covered) != list(range(len(cyc))):
            raise StrategyError(f"atoms do not partition cycle {ac.cycle}")
    for v, n in var_seen.items():
        expected = sum(a == v for tc in template.cycles for a in tc)
        if n != expected:
            raise StrategyError(f"variable {v} appears {n} times, template wants {expected}")


def _verify_nesting(state: GameState, host: int, binding: Nesting, allow_pseudo: bool) -> None:
    counts = state.label_counts()
    cyc = state.cycles[host]
    if isinstance(binding, NestUnique):
        if counts[cyc[binding.pos]] != 1:
            raise StrategyError("nesting edge is not uniquely appearing")
        return
    run = binding.run
    for i in range(len(run) - 1):
        if (run[i] + 1) % len(cyc) != run[i + 1]:
            raise StrategyError("nesting run is not contiguous")
    labels = tuple(cyc[p] for p in run)
    if isinstance(binding, NestPseudo):
        if not allow_pseudo:
            raise StrategyError("pseudo edge outside refined play")
        x, m, x2 = labels
        if x != x2 or x == m:
            raise StrategyError("pseudo edge must read (x, m, x)")
        if any(l == x for ci, c in enumerate(state.cycles) if ci != host for l in c):
            raise StrategyError("pseudo outer label is not isolated")
        return
    x, y, z = labels
    if counts[x] != 2 or counts[y] != 2 or counts[z] != 2:
        raise StrategyError("nesting labels must occur twice")
    if not _cycle_matches_xtzt(state.cycles[binding.xz_cycle], x, z):
        raise StrategyError("xz support cycle does not read (x,t,z,t)")
    inner_run = set(nesting_positions(binding.inner))
    y_cyc = state.cycles[binding.y_cycle]
    rest = [p for p in range(len(y_cyc)) if p not in inner_run]
    if len(rest) != 1 or y_cyc[rest[0]] != y:
        raise StrategyError("y support cycle is not y-edge plus nesting path")
    _verify_nesting(state, binding.y_cycle, binding.inner, allow_pseudo)


def classify_configuration(active_cycles: tuple[int, ...], state: GameState,
                           allow_pseudo: bool = False) -> Optional[int]:
    """Match a set of active components against the twelve templates.

    Works from scratch: tries every assignment of components to template
    cycles, every rotation, and discovers nesting paths via their
    definition.  Returns the configuration id or None.
    """
    for cfg_id, template in TEMPLATES.items():
        if len(template.cycles) != len(active_cycles):
            continue
        for perm in itertools.permutations(active_cycles):
            if _match_assignment(perm, template.cycles, state, allow_pseudo):
                return cfg_id
    return None


def _match_assignment(components: tuple[int, ...], tcycles: tuple[tuple[Atom, ...], ...],
                      state: GameState, allow_pseudo: bool) -> bool:
    counts = state.label_counts()

    def match_cycle(ci: int, atoms: tuple[Atom, ...], var_map: dict[int, int]) -> list[dict[int, int]]:
        cyc = state.cycles[ci]
        results = []
        lengths = [1 if a != "N" else None for a in atoms]
        free = sum(1 for l in lengths if l is None)
        fixed = sum(l for l in lengths if l is not None)
        options = [[1, 3]] * free
        for combo in itertools.product(*options):
            if fixed + sum(combo) != len(cyc):
                continue
            sizes = []
            it = iter(combo)
            for l in lengths:
                sizes.append(l if l is not None else next(it))
            for start in range(len(cyc)):
                vm = dict(var_map)
                pos = start
                ok = True
                for atom, size in zip(atoms, sizes):
                    span = [(pos + k) % len(cyc) for k in range(size)]
                    pos += size
                    if atom == "U":
                        if size != 1 or counts[cyc[span[0]]] != 1:
                            ok = False
                            break
                    elif atom == "N":
                        seg = Segment(ci, tuple(span))
                        if not is_nesting_path(seg, state, allow_pseudo=allow_pseudo):
                            ok = False
                            break
                    else:
                        lab = cyc[span[0]]
                        if counts[lab] == 1:
                            ok = False
                            break
                        if atom in vm and vm[atom] != lab:
                            ok = False
                            break
                        vm[atom] = lab
                if ok:
                    results.append(vm)
        return results

    def backtrack(idx: int, var_map: dict[int, int]) -> bool:
        if idx == len(components):
            return True
        for vm in match_cycle(components[idx], tcycles[idx], var_map):
            if backtrack(idx + 1, vm):
                return True
        return False

    return backtrack(0, {})


# ---------------------------------------------------------------------------
# the cutter strategy


_HALF = Fraction(-1, 2)


def cutter_move(marked: MarkedState, legal: list[CutterReply]) -> tuple[CutterReply, bool]:
    """The reply, among the legal replies ``legal`` to ``marked``, that
    keeps the potential from rising.

    Prefers the reply classes the potential accounting licenses (burn
    genus when both arcs are rich, amalgamate across components, discard
    a poor arc), then any non-increasing legal reply.  When every legal
    reply raises the potential — which the accounting rules out while
    their preconditions hold — the minimal-potential reply is returned
    with the anomaly flag set.  An empty ``legal`` raises ``ValueError``.
    """
    if not legal:
        raise ValueError("no legal replies: the game is over")
    state = marked.state
    p_now = state_potential(state)

    def p_next(reply: CutterReply) -> Fraction:
        return state_potential(reply.next)

    licensed: list[CutterReply] = []
    if not marked.same_component():
        licensed = [r for r in legal if r.kind == "D"]
    else:
        seg_p = seg_q = None
        if marked.v is not None:
            ci = marked.v[0]
            path, path_prime = split_cycle(state.cycles[ci], marked.v[1], marked.w[1])
            seg_p = Segment(ci, path)
            seg_q = Segment(ci, path_prime) if path_prime else None
        p_p = segment_potential(seg_p, state)
        p_q = segment_potential(seg_q, state)
        for r in legal:
            if r.kind == "A" and p_p >= _HALF and p_q >= _HALF:
                licensed.append(r)
            elif r.kind == "B" and p_q < _HALF:
                licensed.append(r)
            elif r.kind == "C" and p_p < _HALF:
                licensed.append(r)

    rank = {"A": 0, "D": 1, "B": 2, "C": 3}

    def choose(pool: list[CutterReply]) -> Optional[CutterReply]:
        good = [r for r in pool if p_next(r) <= p_now]
        if not good:
            return None
        return min(good, key=lambda r: (rank[r.kind], -value(r.next)))

    pick = choose(licensed) or choose(legal)
    if pick is not None:
        return pick, False
    worst = min(legal, key=lambda r: (p_next(r), rank[r.kind], -value(r.next)))
    return worst, True

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
    uniquely_appearing_labels,
    value,
)
from .equivalence import History, legal_replies
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
    the marker marks, and the successor configuration per reply kind."""

    __slots__ = ("cycles", "mark", "arrows")

    def __init__(self, cycles: tuple[tuple[Atom, ...], ...], mark: tuple[tuple[int, int], tuple[int, int]],
                 arrows: dict[str, int]):
        self.cycles, self.mark, self.arrows = cycles, mark, arrows


TEMPLATES: dict[int, Template] = {
    1: Template((("U", "N"),), ((0, 0), (0, 1)), {"A": 2, "B": 10, "C": 10}),
    2: Template(((0, "U"), (0, "N")), ((0, 0), (1, 1)), {"D": 3}),
    3: Template((("N", 0, 1, 0, "U", 1),), ((0, 1), (0, 4)), {"A": 4}),
    4: Template(((0, 1, 0, 2), ("N", 2, "U", 1)), ((1, 0), (1, 1)), {"A": 1, "B": 5, "C": 5}),
    5: Template(((0, 1, 0, 2), ("U", 2, "U", 1), (3, "U", 3, "U"), ("U", "N")), ((2, 1), (2, 2)), {"A": 6}),
    6: Template(
        ((0, 1, 0, 2), ("U", 2, "U", 1), ("U", "N"), (4, "U"), (3, "U", 3, 4)),
        ((4, 1), (4, 2)),
        {"A": 7},
    ),
    7: Template(((0, 1, 0, 2), ("U", 2, "U", 1), ("U", "N")), ((1, 0), (1, 1)), {"A": 8}),
    8: Template(((0, 1, 0, 2), ("U", "N"), (3, "U"), (3, 2, "U", 1)), ((3, 2), (3, 3)), {"A": 1, "B": 9, "C": 9}),
    9: Template((("U", "N"), (0, "U", 0, "U"), ("U", "U"), ("U", "U")), ((2, 0), (2, 1)), {"A": 10}),
    10: Template((("U", "N"), (0, "U", 0, "U"), ("U", "U")), ((1, 1), (1, 2)), {"A": 11}),
    11: Template((("U", "N"), ("U", "U"), (1, "U"), (0, 1, 0, "U")), ((3, 3), (3, 0)), {"A": 12}),
    12: Template((("U", "N"), ("U", "U")), ((1, 0), (1, 1)), {"A": 1}),
}

# configurations whose positive active potentials sum to the cap
ACTIVE_SUM_CAP = Fraction(5)
CAP_CONFIGS = {5, 9}


class ActiveCycle:
    """One active component bound to a template cycle.

    ``pos`` parallels ``atoms``: an edge position for "U" and variable
    atoms, a :class:`Nesting` binding for "N" atoms.
    """

    __slots__ = ("cycle", "atoms", "pos")

    def __init__(self, cycle: int, atoms: tuple[Atom, ...], pos: tuple):
        self.cycle, self.atoms, self.pos = cycle, atoms, pos

    def mark_vertex(self, atom_idx: int) -> Vertex:
        p = self.pos[atom_idx]
        if isinstance(p, int):
            return (self.cycle, p)
        return (self.cycle, nesting_positions(p)[0])


class BoundingPhase:
    """A configuration of the automaton, its active cycles bound, and the
    label of each shared-label variable as (variable, label) pairs."""

    __slots__ = ("config", "actives", "var_labels")

    def __init__(self, config: int, actives: tuple[ActiveCycle, ...], var_labels: tuple[tuple[int, int], ...]):
        self.config, self.actives, self.var_labels = config, actives, var_labels

    def var(self, v: int) -> int:
        return dict(self.var_labels)[v]


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


def _translate_nesting(binding: Nesting, host: int, reply: CutterReply,
                       emap: dict[Edge, Edge], cmap: dict[int, int]) -> tuple[int, Nesting]:
    """Map a nesting binding through a reply.  Returns (new host, binding)."""
    if isinstance(binding, NestUnique):
        nci, npos = emap[(host, binding.pos)]
        return nci, NestUnique(npos)
    if isinstance(binding, NestPseudo):
        mapped = [emap[(host, p)] for p in binding.run]
        hosts = {ci for ci, _ in mapped}
        if len(hosts) != 1:
            raise StrategyError("pseudo edge split across cycles")
        return mapped[0][0], NestPseudo(tuple(p for _, p in mapped))
    mapped = [emap[(host, p)] for p in binding.run]
    hosts = {ci for ci, _ in mapped}
    if len(hosts) != 1:
        raise StrategyError("nesting path split across cycles")
    y_host, inner = _translate_nesting(binding.inner, binding.y_cycle, reply, emap, cmap)
    return mapped[0][0], NestChain(
        run=tuple(p for _, p in mapped),
        xz_cycle=cmap[binding.xz_cycle],
        y_cycle=y_host,
        inner=inner,
    )


def _translate_active(ac: ActiveCycle, reply: CutterReply,
                      emap: dict[Edge, Edge], cmap: dict[int, int]) -> ActiveCycle:
    new_pos = []
    new_cycle: Optional[int] = None
    for atom, p in zip(ac.atoms, ac.pos):
        if isinstance(p, int):
            nci, npos = emap[(ac.cycle, p)]
            new_pos.append(npos)
        else:
            nci, nb = _translate_nesting(p, ac.cycle, reply, emap, cmap)
            new_pos.append(nb)
        if new_cycle is None:
            new_cycle = nci
        elif new_cycle != nci:
            raise StrategyError("active cycle split unexpectedly")
    assert new_cycle is not None
    return ActiveCycle(new_cycle, ac.atoms, tuple(new_pos))


def _unwrap_chain(binding: Nesting) -> NestChain:
    if not isinstance(binding, NestChain):
        raise StrategyError("discarded nesting path has no supporting cycles")
    return binding


def _xtzt_positions(cycle: tuple[int, ...], x: int, z: int) -> tuple[int, int, int, int]:
    """Positions of (t, x, t, z) ordered as (var, U_x, var, U_z) start."""
    n = len(cycle)
    for r in range(n):
        if cycle[r % n] == x and cycle[(r + 2) % n] == z and cycle[(r + 1) % n] == cycle[(r + 3) % n]:
            return ((r + 1) % n, (r + 2) % n, (r + 3) % n, r % n)
    raise StrategyError(f"no (x,t,z,t) reading with x={x}, z={z}")


def _activated_support(chain: NestChain, state: GameState, labels: tuple[int, int, int]) -> tuple[ActiveCycle, ActiveCycle]:
    """After a nesting path (x, y, z) is discarded, its two supporting
    cycles become active: the (x, t, z, t) cycle as (t, U, t, U) and the
    y-cycle as (U, N)."""
    x, y, z = labels
    xz = state.cycles[chain.xz_cycle]
    p_t1, p_z, p_t2, p_x = _xtzt_positions(xz, x, z)
    xtzt = ActiveCycle(chain.xz_cycle, ("VAR", "U", "VAR", "U"), (p_t1, p_z, p_t2, p_x))
    inner_run = set(nesting_positions(chain.inner))
    y_cyc = state.cycles[chain.y_cycle]
    y_edge = [p for p in range(len(y_cyc)) if p not in inner_run]
    if len(y_edge) != 1 or y_cyc[y_edge[0]] != y:
        raise StrategyError("y-cycle is not one y-edge plus the nesting path")
    un = ActiveCycle(chain.y_cycle, ("U", "N"), (y_edge[0], chain.inner))
    return xtzt, un


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

    def expected(self, phase: Phase) -> dict[str, object]:
        """Reply kinds the strategy can meet, with their successor."""
        if isinstance(phase, PreparatoryPhase):
            nxt = 1 if phase.non_a_replies == 1 else PreparatoryPhase(phase.non_a_replies + 1)
            return {"A": phase, "B": nxt, "C": nxt}
        if isinstance(phase, SeedPhase):
            return {"A": 1}
        return dict(TEMPLATES[phase.config].arrows)

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
        active = ActiveCycle(kept, ("U", "N"), (u_pos, NestUnique(f_pos)))
        return BoundingPhase(1, (active,), ())

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
        active = ActiveCycle(c2, ("U", "N"), (u, NestPseudo(run)))
        return BoundingPhase(1, (active,), ())

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
        c0 = ActiveCycle(pci, (0, "U"), (pp, 1 - pp))
        c1 = ActiveCycle(host, (0, "N"), (mid_pos, rebound))
        return BoundingPhase(2, (c0, c1), ((0, mid),))

    # -- the transition table ---------------------------------------------

    def _advance_bounding(self, phase: BoundingPhase, state: GameState, reply: CutterReply) -> BoundingPhase:
        handler = _HANDLERS.get((phase.config, reply.kind))
        if handler is None:
            raise StrategyError(f"configuration {phase.config} cannot absorb a kind-{reply.kind} reply")
        actives, var_labels = handler(phase, state, reply)
        return BoundingPhase(TEMPLATES[phase.config].arrows[reply.kind], actives, var_labels)


# Handlers assemble the bindings of the configuration that the template's
# arrow names, from the reply's provenance.  ``state`` is the pre-reply
# state throughout.

Bindings = tuple[tuple[ActiveCycle, ...], tuple[tuple[int, int], ...]]  # (actives, var_labels)


def _maps(reply: CutterReply) -> tuple[dict[Edge, Edge], dict[int, int]]:
    """Where each surviving old edge landed in ``next``, and where each
    old cycle's first surviving edge did."""
    return dict(reply.edge_map), {oci: nci for (oci, _), (nci, _) in reversed(reply.edge_map)}


def _h1_a(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    old = phase.actives[0]
    c1, c2 = reply.derived
    f, fp = reply.new_edges
    _, u_new = emap[(old.cycle, old.pos[0])]
    _, n_binding = _translate_nesting(old.pos[1], old.cycle, reply, emap, cmap)
    c0 = ActiveCycle(c1, (0, "U"), (f[1], u_new))
    c1b = ActiveCycle(c2, (0, "N"), (fp[1], n_binding))
    return ((c0, c1b), ((0, reply.new_label),))


def _h1_bc(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    old = phase.actives[0]
    chain = _unwrap_chain(old.pos[1])
    labels = tuple(state.cycles[old.cycle][p] for p in chain.run)
    kept = reply.derived[0]
    f = reply.new_edges[0]
    _, u_new = emap[(old.cycle, old.pos[0])]
    chain_t = NestChain(chain.run, cmap[chain.xz_cycle], cmap[chain.y_cycle],
                        _translate_inner(chain, reply, emap, cmap))
    xtzt, un = _activated_support(chain_t, reply.next, labels)
    pair = ActiveCycle(kept, ("U", "U"), (u_new, f[1]))
    return ((un, _as_var(xtzt, 0), pair), ((0, _t_label(reply.next, xtzt)),))


def _translate_inner(chain: NestChain, reply: CutterReply, emap, cmap) -> Nesting:
    _, inner = _translate_nesting(chain.inner, chain.y_cycle, reply, emap, cmap)
    return inner


def _as_var(ac: ActiveCycle, var: int) -> ActiveCycle:
    atoms = tuple(var if a == "VAR" else a for a in ac.atoms)
    return ActiveCycle(ac.cycle, atoms, ac.pos)


def _t_label(state: GameState, xtzt: ActiveCycle) -> int:
    return state.cycles[xtzt.cycle][xtzt.pos[0]]


def _h2_d(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    c0, c1 = phase.actives
    amalgam = reply.derived[0]
    fp, f = reply.new_edges
    _, s0 = emap[(c0.cycle, c0.pos[0])]
    _, u = emap[(c0.cycle, c0.pos[1])]
    _, s1 = emap[(c1.cycle, c1.pos[0])]
    _, nb = _translate_nesting(c1.pos[1], c1.cycle, reply, emap, cmap)
    active = ActiveCycle(amalgam, ("N", 0, 1, 0, "U", 1), (nb, s1, f[1], s0, u, fp[1]))
    return ((active,), ((0, phase.var(0)), (1, reply.new_label)))


def _h3_a(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    (old,) = phase.actives
    c1, c2 = reply.derived
    f, fp = reply.new_edges
    _, a1 = emap[(old.cycle, old.pos[1])]
    _, b1 = emap[(old.cycle, old.pos[2])]
    _, a2 = emap[(old.cycle, old.pos[3])]
    _, u = emap[(old.cycle, old.pos[4])]
    _, b2 = emap[(old.cycle, old.pos[5])]
    _, nb = _translate_nesting(old.pos[0], old.cycle, reply, emap, cmap)
    abac = ActiveCycle(c1, (0, 1, 0, 2), (a1, b1, a2, f[1]))
    ncub = ActiveCycle(c2, ("N", 2, "U", 1), (nb, fp[1], u, b2))
    return ((abac, ncub), ((0, phase.var(0)), (1, phase.var(1)), (2, reply.new_label)))


def _h4_a(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    abac, ncub = phase.actives
    c1, c2 = reply.derived
    f, fp = reply.new_edges
    nesting = ncub.pos[0]
    _, inner = _translate_nesting(nesting, ncub.cycle, reply, emap, cmap)
    _, c_edge = emap[(ncub.cycle, ncub.pos[1])]
    _, u = emap[(ncub.cycle, ncub.pos[2])]
    _, b_edge = emap[(ncub.cycle, ncub.pos[3])]
    xz_cycle = cmap[abac.cycle]
    chain = NestChain(run=(b_edge, fp[1], c_edge), xz_cycle=xz_cycle, y_cycle=c1, inner=inner)
    active = ActiveCycle(c2, ("U", "N"), (u, chain))
    return ((active,), ())


def _h4_bc(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    abac, ncub = phase.actives
    kept = reply.derived[0]
    fp = reply.new_edges[0]
    chain = _unwrap_chain(ncub.pos[0])
    labels = tuple(state.cycles[ncub.cycle][p] for p in chain.run)
    chain_t = NestChain(chain.run, cmap[chain.xz_cycle], cmap[chain.y_cycle],
                        _translate_inner(chain, reply, emap, cmap))
    xtzt, un = _activated_support(chain_t, reply.next, labels)
    _, c_edge = emap[(ncub.cycle, ncub.pos[1])]
    _, u = emap[(ncub.cycle, ncub.pos[2])]
    _, b_edge = emap[(ncub.cycle, ncub.pos[3])]
    abac_t = _translate_active(abac, reply, emap, cmap)
    ucub = ActiveCycle(kept, ("U", 2, "U", 1), (fp[1], c_edge, u, b_edge))
    return (
        (abac_t, ucub, _as_var(xtzt, 3), un),
        ((0, phase.var(0)), (1, phase.var(1)), (2, phase.var(2)), (3, _t_label(reply.next, xtzt))),
    )


def _h5_a(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    abac, ucub, dudu, un = phase.actives
    c1, c2 = reply.derived
    f, fp = reply.new_edges
    _, u1 = emap[(dudu.cycle, dudu.pos[1])]
    _, d2 = emap[(dudu.cycle, dudu.pos[2])]
    _, u2 = emap[(dudu.cycle, dudu.pos[3])]
    _, d1 = emap[(dudu.cycle, dudu.pos[0])]
    pair = ActiveCycle(c1, (4, "U"), (f[1], u1))
    dude = ActiveCycle(c2, (3, "U", 3, 4), (d2, u2, d1, fp[1]))
    keep = [_translate_active(ac, reply, emap, cmap) for ac in (abac, ucub, un)]
    vars_ = dict(phase.var_labels)
    vars_[4] = reply.new_label
    return ((keep[0], keep[1], keep[2], pair, dude), tuple(sorted(vars_.items())))


def _h6_a(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    abac, ucub, un, _pair, _dude = phase.actives
    keep = [_translate_active(ac, reply, emap, cmap) for ac in (abac, ucub, un)]
    vars_ = {v: l for v, l in phase.var_labels if v in (0, 1, 2)}
    return (tuple(keep), tuple(sorted(vars_.items())))


def _h7_a(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    abac, ucub, un = phase.actives
    c1, c2 = reply.derived
    f, fp = reply.new_edges
    _, u_first = emap[(ucub.cycle, ucub.pos[0])]
    _, c_edge = emap[(ucub.cycle, ucub.pos[1])]
    _, u_second = emap[(ucub.cycle, ucub.pos[2])]
    _, b_edge = emap[(ucub.cycle, ucub.pos[3])]
    abac_t = _translate_active(abac, reply, emap, cmap)
    un_t = _translate_active(un, reply, emap, cmap)
    du = ActiveCycle(c1, (3, "U"), (f[1], u_first))
    dcub = ActiveCycle(c2, (3, 2, "U", 1), (fp[1], c_edge, u_second, b_edge))
    vars_ = dict(phase.var_labels)
    vars_[3] = reply.new_label
    return ((abac_t, un_t, du, dcub), tuple(sorted(vars_.items())))


def _h8_a(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    un = phase.actives[1]
    return ((_translate_active(un, reply, emap, cmap),), ())


def _h8_bc(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    abac, un, du, dcub = phase.actives
    kept = reply.derived[0]
    f = reply.new_edges[0]
    _, u_kept = emap[(dcub.cycle, dcub.pos[2])]
    un_t = _translate_active(un, reply, emap, cmap)
    abac_t = _translate_active(abac, reply, emap, cmap)
    du_t = _translate_active(du, reply, emap, cmap)
    auau = ActiveCycle(abac_t.cycle, (0, "U", 0, "U"), abac_t.pos)
    uu1 = ActiveCycle(du_t.cycle, ("U", "U"), du_t.pos)
    uu2 = ActiveCycle(kept, ("U", "U"), (u_kept, f[1]))
    return ((un_t, auau, uu1, uu2), ((0, phase.var(0)),))


def _h9_a(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    un, auau, _split, other = phase.actives
    keep = [_translate_active(ac, reply, emap, cmap) for ac in (un, auau, other)]
    return (tuple(keep), ((0, phase.var(0)),))


def _h10_a(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    un, auau, uu = phase.actives
    c1, c2 = reply.derived
    f, fp = reply.new_edges
    _, u1 = emap[(auau.cycle, auau.pos[1])]
    _, a2 = emap[(auau.cycle, auau.pos[2])]
    _, u2 = emap[(auau.cycle, auau.pos[3])]
    _, a1 = emap[(auau.cycle, auau.pos[0])]
    un_t = _translate_active(un, reply, emap, cmap)
    uu_t = _translate_active(uu, reply, emap, cmap)
    bu = ActiveCycle(c1, (1, "U"), (f[1], u1))
    abau = ActiveCycle(c2, (0, 1, 0, "U"), (a1, fp[1], a2, u2))
    return ((un_t, uu_t, bu, abau), ((0, phase.var(0)), (1, reply.new_label)))


def _h11_a(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    un, uu, _bu, _abau = phase.actives
    keep = [_translate_active(ac, reply, emap, cmap) for ac in (un, uu)]
    return (tuple(keep), ())


def _h12_a(phase: BoundingPhase, state: GameState, reply: CutterReply) -> Bindings:
    emap, cmap = _maps(reply)
    un = phase.actives[0]
    return ((_translate_active(un, reply, emap, cmap),), ())


_HANDLERS = {
    (1, "A"): _h1_a,
    (1, "B"): _h1_bc,
    (1, "C"): _h1_bc,
    (2, "D"): _h2_d,
    (3, "A"): _h3_a,
    (4, "A"): _h4_a,
    (4, "B"): _h4_bc,
    (4, "C"): _h4_bc,
    (5, "A"): _h5_a,
    (6, "A"): _h6_a,
    (7, "A"): _h7_a,
    (8, "A"): _h8_a,
    (8, "B"): _h8_bc,
    (8, "C"): _h8_bc,
    (9, "A"): _h9_a,
    (10, "A"): _h10_a,
    (11, "A"): _h11_a,
    (12, "A"): _h12_a,
}

if set(_HANDLERS) != {(cfg, kind) for cfg, t in TEMPLATES.items() for kind in t.arrows}:
    raise StrategyError("transition handlers do not match the templates' arrows")


# ---------------------------------------------------------------------------
# configuration verification and independent classification


def verify_bindings(state: GameState, phase: BoundingPhase, allow_pseudo: bool = False) -> None:
    """Structural audit of a bound configuration; raises StrategyError."""
    template = TEMPLATES[phase.config]
    if len(phase.actives) != len(template.cycles):
        raise StrategyError("active count does not match the template")
    counts = state.label_counts()
    var_labels = dict(phase.var_labels)
    var_seen: dict[int, int] = {}
    for ac, tcyc in zip(phase.actives, template.cycles):
        if ac.atoms != tcyc:
            raise StrategyError(f"atoms {ac.atoms} differ from template {tcyc}")
        if not (0 <= ac.cycle < len(state.cycles)):
            raise StrategyError("active references a missing cycle")
        cyc = state.cycles[ac.cycle]
        covered: list[int] = []
        for atom, p in zip(ac.atoms, ac.pos):
            if isinstance(p, int):
                covered.append(p)
                lab = cyc[p]
                if atom == "U":
                    if counts[lab] != 1:
                        raise StrategyError(f"label {lab} bound as unique appears {counts[lab]} times")
                else:
                    if var_labels.get(atom) != lab:
                        raise StrategyError(f"variable {atom} bound to {var_labels.get(atom)} but edge reads {lab}")
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


def cutter_move(history: History, marked: MarkedState) -> tuple[CutterReply, bool]:
    """A legal reply that keeps the potential from rising.

    Prefers the reply classes the potential accounting licenses (burn
    genus when both arcs are rich, amalgamate across components, discard
    a poor arc), then any non-increasing legal reply.  When every legal
    reply raises the potential — which the accounting rules out while
    their preconditions hold — the minimal-potential reply is returned
    with the anomaly flag set.
    """
    legal = legal_replies(history, marked)
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
        sample = legal[0]
        ci = None if marked.v is None else marked.v[0]
        seg_p = None if ci is None or not sample.path else Segment(ci, sample.path)
        seg_q = None if ci is None or not sample.path_prime else Segment(ci, sample.path_prime)
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

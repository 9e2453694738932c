"""Reference transitions of the marker's twelve-state automaton.

``cutgame.strategy`` applies one table: each arrow of ``TEMPLATES``
names its target configuration and where each of the target's active
cycles comes from, and ``MarkerStrategy._advance_bounding`` interprets
it.  The tests keep the hand-written handlers that table replaced here,
one per arrow, with their own binding translation.  Where the handlers
read a shared-label variable's label, they read it off the pre-reply
state, since phases no longer store those labels.  Each handler writes
the atoms of every cycle it builds by hand (:class:`RefCycle`), so the
cross-check also checks the table's atom lists.

The strategy binds a nesting path as its run alone and reads its
supporting cycles off the labels.  The handlers keep the explicit
bindings it replaced, :class:`NestUnique`, :class:`NestPseudo` and
:class:`NestChain`, and carry each chain's supports through the reply
themselves; :func:`lift` finds the supports of a bound phase's runs by
scanning every cycle, as ``reference_is_nesting_path`` does.

It also keeps the configuration matcher that
``strategy.classify_configuration``'s template walk replaced:
:func:`reference_classify` sizes every nesting path up front and tries
every size combination from every rotation start.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from cutgame.core import CutterReply, Edge, GameState
from cutgame.potential import is_nesting_path
from cutgame.strategy import TEMPLATES, ActiveCycle, Atom, BoundingPhase, StrategyError

from reference_potential import reads_xtzt, reference_is_nesting_path, reference_nesting_y_edge


# ---------------------------------------------------------------------------
# nesting-path bindings with explicit supports


@dataclass(frozen=True)
class NestUnique:
    """A nesting path that is a single uniquely appearing edge."""

    pos: int


@dataclass(frozen=True)
class NestPseudo:
    """A pseudo edge: run (x, m, x) with x isolated on the host cycle."""

    run: tuple[int, int, int]


@dataclass(frozen=True)
class NestChain:
    """A three-edge nesting path with its supporting passive cycles.

    ``run`` holds the host positions of the (x, y, z) edges in path
    order.  ``xz_cycle`` reads (x, t, z, t); ``y_cycle`` consists of the
    other y-edge plus ``inner``, a nesting path on that cycle.
    """

    run: tuple[int, int, int]
    xz_cycle: int
    y_cycle: int
    inner: "Nesting"


Nesting = Union[NestUnique, NestPseudo, NestChain]


def run_of(binding: Nesting) -> tuple[int, ...]:
    """The run a nesting binding covers, as the strategy binds it."""
    return (binding.pos,) if isinstance(binding, NestUnique) else binding.run


def _lift_nesting(state: GameState, host: int, run: tuple[int, ...]) -> Nesting:
    """The explicit binding of the nesting path ``run`` on cycle
    ``host``: its supports found by scanning every cycle."""
    if len(run) == 1:
        return NestUnique(run[0])
    cyc = state.cycles[host]
    x, _, z = (cyc[p] for p in run)
    if x == z:
        return NestPseudo(run)
    if not reference_is_nesting_path(state, host, run, allow_pseudo=True):
        raise StrategyError(f"run {run} of cycle {host} is not a nesting path")
    (xz_cycle,) = [ci for ci, c in enumerate(state.cycles) if ci != host and reads_xtzt(c, x, z)]
    y_cycle, p = reference_nesting_y_edge(state, host, run, allow_pseudo=True)
    n = len(state.cycles[y_cycle])
    inner = tuple((p + k) % n for k in range(1, n))
    return NestChain(run, xz_cycle, y_cycle, _lift_nesting(state, y_cycle, inner))


def lift(phase: BoundingPhase, state: GameState) -> BoundingPhase:
    """``phase`` with each run bound to an "N" atom replaced by its
    explicit binding."""
    actives = tuple(
        ActiveCycle(ac.cycle, tuple(_lift_nesting(state, ac.cycle, p) if atom == "N" else p
                                    for atom, p in zip(atoms, ac.pos)))
        for ac, atoms in zip(phase.actives, TEMPLATES[phase.config].cycles, strict=True))
    return BoundingPhase(phase.config, actives)


class RefCycle(NamedTuple):
    """An active cycle with its atoms written out."""

    cycle: int
    atoms: tuple[Atom, ...]
    pos: tuple


# ---------------------------------------------------------------------------
# phase comparison


def bound_cycles(phase: BoundingPhase) -> tuple[RefCycle, ...]:
    """The phase's active cycles with their template atoms."""
    return tuple(RefCycle(ac.cycle, atoms, ac.pos)
                 for ac, atoms in zip(phase.actives, TEMPLATES[phase.config].cycles, strict=True))


def var_labels(cycles: tuple[RefCycle, ...], state: GameState) -> tuple[tuple[int, int], ...]:
    """(variable, label) pairs, each label read off the variable's first
    bound edge in ``state``."""
    labels: dict[int, int] = {}
    for rc in cycles:
        for atom, p in zip(rc.atoms, rc.pos):
            if isinstance(atom, int):
                labels.setdefault(atom, state.cycles[rc.cycle][p])
    return tuple(sorted(labels.items()))


def phase_signature(config: int, cycles: tuple[RefCycle, ...], state: GameState) -> tuple:
    """Everything a bound configuration says about ``state``: config,
    active cycles, atoms, positions, nesting runs and variable labels."""
    actives = tuple(
        (rc.cycle, rc.atoms, tuple(p if isinstance(p, (int, tuple)) else run_of(p) for p in rc.pos))
        for rc in cycles
    )
    return (config, actives, var_labels(cycles, state))


# ---------------------------------------------------------------------------
# binding translation through a reply


def _maps(reply: CutterReply) -> tuple[dict[Edge, Edge], dict[int, int]]:
    """Where each surviving old edge landed in ``next``, and where each
    old cycle's first surviving edge did."""
    return dict(reply.edge_map), {oci: nci for (oci, _), (nci, _) in reversed(reply.edge_map)}


def _translate_nesting(binding: Nesting, host: int, emap: dict[Edge, Edge],
                       cmap: dict[int, int]) -> tuple[int, Nesting]:
    """Map a nesting binding through a reply.  Returns (new host, binding)."""
    if isinstance(binding, NestUnique):
        nci, npos = emap[(host, binding.pos)]
        return nci, NestUnique(npos)
    if isinstance(binding, NestPseudo):
        mapped = [emap[(host, p)] for p in binding.run]
        if len({ci for ci, _ in mapped}) != 1:
            raise StrategyError("pseudo edge split across cycles")
        return mapped[0][0], NestPseudo(tuple(p for _, p in mapped))
    mapped = [emap[(host, p)] for p in binding.run]
    if len({ci for ci, _ in mapped}) != 1:
        raise StrategyError("nesting path split across cycles")
    y_host, inner = _translate_nesting(binding.inner, binding.y_cycle, emap, cmap)
    return mapped[0][0], NestChain(tuple(p for _, p in mapped), cmap[binding.xz_cycle], y_host, inner)


def _carry(ac: ActiveCycle, atoms: tuple[Atom, ...], emap: dict[Edge, Edge],
           cmap: dict[int, int]) -> RefCycle:
    """An active cycle carried whole through the reply, read as ``atoms``."""
    new_pos = []
    new_cycle: Optional[int] = None
    for p in ac.pos:
        if isinstance(p, int):
            nci, npos = emap[(ac.cycle, p)]
        else:
            nci, npos = _translate_nesting(p, ac.cycle, emap, cmap)
        new_pos.append(npos)
        if new_cycle is None:
            new_cycle = nci
        elif new_cycle != nci:
            raise StrategyError("active cycle split unexpectedly")
    assert new_cycle is not None
    return RefCycle(new_cycle, atoms, tuple(new_pos))


def _unwrap_chain(binding: Nesting) -> NestChain:
    if not isinstance(binding, NestChain):
        raise StrategyError("discarded nesting path has no supporting cycles")
    return binding


def _xtzt_positions(cycle: tuple[int, ...], x: int, z: int) -> tuple[int, int, int, int]:
    n = len(cycle)
    for r in range(n):
        if cycle[r] == x and cycle[(r + 2) % n] == z and cycle[(r + 1) % n] == cycle[(r + 3) % n]:
            return ((r + 1) % n, (r + 2) % n, (r + 3) % n, r)
    raise StrategyError(f"no (x,t,z,t) reading with x={x}, z={z}")


def _activated_support(chain: NestChain, state: GameState, labels: tuple[int, ...],
                       var: int) -> tuple[RefCycle, RefCycle, int]:
    """After a nesting path (x, y, z) is discarded, its two supporting
    cycles become active: the (x, t, z, t) cycle as (var, U, var, U) and
    the y-cycle as (U, N).  Also returns the label t."""
    x, y, z = labels
    xz = state.cycles[chain.xz_cycle]
    p_t1, p_z, p_t2, p_x = _xtzt_positions(xz, x, z)
    xtzt = RefCycle(chain.xz_cycle, (var, "U", var, "U"), (p_t1, p_z, p_t2, p_x))
    inner_run = set(run_of(chain.inner))
    y_cyc = state.cycles[chain.y_cycle]
    y_edge = [p for p in range(len(y_cyc)) if p not in inner_run]
    if len(y_edge) != 1 or y_cyc[y_edge[0]] != y:
        raise StrategyError("y-cycle is not one y-edge plus the nesting path")
    un = RefCycle(chain.y_cycle, ("U", "N"), (y_edge[0], chain.inner))
    return xtzt, un, xz[p_t1]


def _discarded_support(ac: ActiveCycle, atom_idx: int, state: GameState, reply: CutterReply,
                       emap: dict[Edge, Edge], cmap: dict[int, int], var: int):
    chain = _unwrap_chain(ac.pos[atom_idx])
    labels = tuple(state.cycles[ac.cycle][p] for p in chain.run)
    _, inner = _translate_nesting(chain.inner, chain.y_cycle, emap, cmap)
    chain_t = NestChain(chain.run, cmap[chain.xz_cycle], cmap[chain.y_cycle], inner)
    return _activated_support(chain_t, reply.next, labels, var)


# ---------------------------------------------------------------------------
# the handlers, one per arrow
#
# Each assembles the bindings of its target configuration from the
# reply's provenance and returns (cycles, var_labels).  ``state`` is the
# pre-reply state throughout.


def _h1_a(phase, state, reply):
    emap, cmap = _maps(reply)
    old = phase.actives[0]
    c1, c2 = reply.derived
    f, fp = reply.new_edges
    _, u_new = emap[(old.cycle, old.pos[0])]
    _, n_binding = _translate_nesting(old.pos[1], old.cycle, emap, cmap)
    c0 = RefCycle(c1, (0, "U"), (f[1], u_new))
    c1b = RefCycle(c2, (0, "N"), (fp[1], n_binding))
    return (c0, c1b), ((0, state.next_label),)


def _h1_b(phase, state, reply):
    emap, cmap = _maps(reply)
    old = phase.actives[0]
    kept = reply.derived[0]
    f = reply.new_edges[0]
    _, u_new = emap[(old.cycle, old.pos[0])]
    xtzt, un, t = _discarded_support(old, 1, state, reply, emap, cmap, 0)
    pair = RefCycle(kept, ("U", "U"), (u_new, f[1]))
    return (un, xtzt, pair), ((0, t),)


def _h2_d(phase, state, reply):
    emap, cmap = _maps(reply)
    c0, c1 = phase.actives
    amalgam = reply.derived[0]
    fp, f = reply.new_edges
    _, s0 = emap[(c0.cycle, c0.pos[0])]
    _, u = emap[(c0.cycle, c0.pos[1])]
    _, s1 = emap[(c1.cycle, c1.pos[0])]
    _, nb = _translate_nesting(c1.pos[1], c1.cycle, emap, cmap)
    active = RefCycle(amalgam, ("N", 0, 1, 0, "U", 1), (nb, s1, f[1], s0, u, fp[1]))
    return (active,), ((0, _var(phase, state, 0)), (1, state.next_label))


def _h3_a(phase, state, reply):
    emap, cmap = _maps(reply)
    (old,) = phase.actives
    c1, c2 = reply.derived
    f, fp = reply.new_edges
    _, a1 = emap[(old.cycle, old.pos[1])]
    _, b1 = emap[(old.cycle, old.pos[2])]
    _, a2 = emap[(old.cycle, old.pos[3])]
    _, u = emap[(old.cycle, old.pos[4])]
    _, b2 = emap[(old.cycle, old.pos[5])]
    _, nb = _translate_nesting(old.pos[0], old.cycle, emap, cmap)
    abac = RefCycle(c1, (0, 1, 0, 2), (a1, b1, a2, f[1]))
    ncub = RefCycle(c2, ("N", 2, "U", 1), (nb, fp[1], u, b2))
    return (abac, ncub), ((0, _var(phase, state, 0)), (1, _var(phase, state, 1)), (2, state.next_label))


def _h4_a(phase, state, reply):
    emap, cmap = _maps(reply)
    abac, ncub = phase.actives
    c1, c2 = reply.derived
    f, fp = reply.new_edges
    _, inner = _translate_nesting(ncub.pos[0], ncub.cycle, emap, cmap)
    _, c_edge = emap[(ncub.cycle, ncub.pos[1])]
    _, u = emap[(ncub.cycle, ncub.pos[2])]
    _, b_edge = emap[(ncub.cycle, ncub.pos[3])]
    chain = NestChain((b_edge, fp[1], c_edge), cmap[abac.cycle], c1, inner)
    return (RefCycle(c2, ("U", "N"), (u, chain)),), ()


def _h4_c(phase, state, reply):
    emap, cmap = _maps(reply)
    abac, ncub = phase.actives
    kept = reply.derived[0]
    fp = reply.new_edges[0]
    xtzt, un, t = _discarded_support(ncub, 0, state, reply, emap, cmap, 3)
    _, c_edge = emap[(ncub.cycle, ncub.pos[1])]
    _, u = emap[(ncub.cycle, ncub.pos[2])]
    _, b_edge = emap[(ncub.cycle, ncub.pos[3])]
    abac_t = _carry(abac, (0, 1, 0, 2), emap, cmap)
    ucub = RefCycle(kept, ("U", 2, "U", 1), (fp[1], c_edge, u, b_edge))
    return (abac_t, ucub, xtzt, un), _var_labels(phase, state, (0, 1, 2)) + ((3, t),)


def _h5_a(phase, state, reply):
    emap, cmap = _maps(reply)
    abac, ucub, dudu, un = phase.actives
    c1, c2 = reply.derived
    f, fp = reply.new_edges
    _, u1 = emap[(dudu.cycle, dudu.pos[1])]
    _, d2 = emap[(dudu.cycle, dudu.pos[2])]
    _, u2 = emap[(dudu.cycle, dudu.pos[3])]
    _, d1 = emap[(dudu.cycle, dudu.pos[0])]
    pair = RefCycle(c1, (4, "U"), (f[1], u1))
    dude = RefCycle(c2, (3, "U", 3, 4), (d2, u2, d1, fp[1]))
    keep = (_carry(abac, (0, 1, 0, 2), emap, cmap), _carry(ucub, ("U", 2, "U", 1), emap, cmap),
            _carry(un, ("U", "N"), emap, cmap))
    return keep + (pair, dude), _var_labels(phase, state, (0, 1, 2, 3)) + ((4, state.next_label),)


def _h6_a(phase, state, reply):
    emap, cmap = _maps(reply)
    abac, ucub, un, _pair, _dude = phase.actives
    keep = (_carry(abac, (0, 1, 0, 2), emap, cmap), _carry(ucub, ("U", 2, "U", 1), emap, cmap),
            _carry(un, ("U", "N"), emap, cmap))
    return keep, _var_labels(phase, state, (0, 1, 2))


def _h7_a(phase, state, reply):
    emap, cmap = _maps(reply)
    abac, ucub, un = phase.actives
    c1, c2 = reply.derived
    f, fp = reply.new_edges
    _, u_first = emap[(ucub.cycle, ucub.pos[0])]
    _, c_edge = emap[(ucub.cycle, ucub.pos[1])]
    _, u_second = emap[(ucub.cycle, ucub.pos[2])]
    _, b_edge = emap[(ucub.cycle, ucub.pos[3])]
    abac_t = _carry(abac, (0, 1, 0, 2), emap, cmap)
    un_t = _carry(un, ("U", "N"), emap, cmap)
    du = RefCycle(c1, (3, "U"), (f[1], u_first))
    dcub = RefCycle(c2, (3, 2, "U", 1), (fp[1], c_edge, u_second, b_edge))
    return (abac_t, un_t, du, dcub), _var_labels(phase, state, (0, 1, 2)) + ((3, state.next_label),)


def _h8_a(phase, state, reply):
    emap, cmap = _maps(reply)
    return (_carry(phase.actives[1], ("U", "N"), emap, cmap),), ()


def _h8_b(phase, state, reply):
    emap, cmap = _maps(reply)
    abac, un, du, dcub = phase.actives
    kept = reply.derived[0]
    f = reply.new_edges[0]
    _, u_kept = emap[(dcub.cycle, dcub.pos[2])]
    un_t = _carry(un, ("U", "N"), emap, cmap)
    auau = _carry(abac, (0, "U", 0, "U"), emap, cmap)
    uu1 = _carry(du, ("U", "U"), emap, cmap)
    uu2 = RefCycle(kept, ("U", "U"), (u_kept, f[1]))
    return (un_t, auau, uu1, uu2), ((0, _var(phase, state, 0)),)


def _h9_a(phase, state, reply):
    emap, cmap = _maps(reply)
    un, auau, _split, other = phase.actives
    keep = (_carry(un, ("U", "N"), emap, cmap), _carry(auau, (0, "U", 0, "U"), emap, cmap),
            _carry(other, ("U", "U"), emap, cmap))
    return keep, ((0, _var(phase, state, 0)),)


def _h10_a(phase, state, reply):
    emap, cmap = _maps(reply)
    un, auau, uu = phase.actives
    c1, c2 = reply.derived
    f, fp = reply.new_edges
    _, u1 = emap[(auau.cycle, auau.pos[1])]
    _, a2 = emap[(auau.cycle, auau.pos[2])]
    _, u2 = emap[(auau.cycle, auau.pos[3])]
    _, a1 = emap[(auau.cycle, auau.pos[0])]
    un_t = _carry(un, ("U", "N"), emap, cmap)
    uu_t = _carry(uu, ("U", "U"), emap, cmap)
    bu = RefCycle(c1, (1, "U"), (f[1], u1))
    abau = RefCycle(c2, (0, 1, 0, "U"), (a1, fp[1], a2, u2))
    return (un_t, uu_t, bu, abau), ((0, _var(phase, state, 0)), (1, state.next_label))


def _h11_a(phase, state, reply):
    emap, cmap = _maps(reply)
    un, uu, _bu, _abau = phase.actives
    return (_carry(un, ("U", "N"), emap, cmap), _carry(uu, ("U", "U"), emap, cmap)), ()


def _h12_a(phase, state, reply):
    emap, cmap = _maps(reply)
    return (_carry(phase.actives[0], ("U", "N"), emap, cmap),), ()


def _var(phase: BoundingPhase, state: GameState, v: int) -> int:
    return dict(var_labels(bound_cycles(phase), state))[v]


def _var_labels(phase: BoundingPhase, state: GameState, keep: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    return tuple((v, _var(phase, state, v)) for v in keep)


# (configuration, reply kind) -> (target configuration, handler).  The
# replies 1-C, 4-B and 8-C to the strategy's own mark are never legal,
# so they have no arrow.
REFERENCE_ARROWS = {
    (1, "A"): (2, _h1_a),
    (1, "B"): (10, _h1_b),
    (2, "D"): (3, _h2_d),
    (3, "A"): (4, _h3_a),
    (4, "A"): (1, _h4_a),
    (4, "C"): (5, _h4_c),
    (5, "A"): (6, _h5_a),
    (6, "A"): (7, _h6_a),
    (7, "A"): (8, _h7_a),
    (8, "A"): (1, _h8_a),
    (8, "B"): (9, _h8_b),
    (9, "A"): (10, _h9_a),
    (10, "A"): (11, _h10_a),
    (11, "A"): (12, _h11_a),
    (12, "A"): (1, _h12_a),
}


def reference_advance(phase: BoundingPhase, state: GameState, reply: CutterReply
                      ) -> tuple[int, tuple[RefCycle, ...], tuple[tuple[int, int], ...]]:
    """The configuration after ``reply`` (``state`` is the pre-reply
    state), its active cycles with their atoms, and the (variable,
    label) pairs the handler assigned."""
    arrow = REFERENCE_ARROWS.get((phase.config, reply.kind))
    if arrow is None:
        raise StrategyError(f"configuration {phase.config} cannot absorb a kind-{reply.kind} reply")
    target, handler = arrow
    cycles, labels = handler(lift(phase, state), state, reply)
    return target, cycles, labels


# ---------------------------------------------------------------------------
# the replaced configuration matcher


def reference_classify(active_cycles: tuple[int, ...], state: GameState,
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
                        if not is_nesting_path(state, ci, tuple(span), allow_pseudo):
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

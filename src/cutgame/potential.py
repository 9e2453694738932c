"""The conserved potential of game states, and nesting paths.

A run is a sequence of edge positions on one cycle, in path order.  An
edge on a run is worth 3/2 when its label occurs nowhere else in the
state, 3/4 when it touches a same-labelled edge inside the run, and 1/2
otherwise.  A run's potential is the edge sum minus 2, so the empty run
(a trivial arc) is worth -2.  A whole component is read as a closed
run, whose two end edges touch.  The state potential combines burned
genus, value and the positive component potentials:

    p = 4*(g0 - g) - 3*value + sum of positive component potentials

Potentials are ``int`` quarters (an edge is worth 6, 3 or 2, a run
starts at -8), summed once per state and cached on it; only reports turn
them into ``"n/d"`` strings, through ``potential_text``.
"""

from __future__ import annotations

import math
from typing import Optional

from .core import Edge, GameState

QUARTER = 4  # the potential's unit: every potential is a whole number of quarters


def potential_text(q: int) -> str:
    """``q`` quarters as the reduced fraction ``"n/d"`` that reports print."""
    d = math.gcd(q, QUARTER)
    return f"{q // d}/{QUARTER // d}"


def _quarters(labels: tuple[int, ...], wrap: bool, counts: dict[int, int]) -> int:
    """A run's potential in quarters; ``wrap`` makes its end edges touch."""
    k = len(labels)
    total = -8
    for j, lab in enumerate(labels):
        if counts[lab] == 1:
            total += 6
        elif ((j or wrap) and labels[j - 1] == lab) or ((j + 1 < k or wrap) and labels[(j + 1) % k] == lab):
            total += 3
        else:
            total += 2
    return total


def _profile(state: GameState) -> tuple[dict[int, int], list[int], int, int]:
    """Label counts, then component, positive-sum and state quarters, kept on the state."""
    profile = vars(state).get("_potential")
    if profile is None:
        counts = state.label_counts()
        comps = [_quarters(cyc, len(cyc) > 1, counts) for cyc in state.cycles]
        positive = sum(q for q in comps if q > 0)
        total = 16 * (state.initial_genus - state.genus) - 12 * len(counts) + positive
        profile = vars(state)["_potential"] = (counts, comps, positive, total)
    return profile


def segment_potential(state: GameState, ci: int, run: Optional[tuple[int, ...]] = None) -> int:
    """The open run ``run`` of cycle ``ci`` in quarters, or the whole
    component, closed, when ``run`` is None.  An empty run reads no
    cycle and is worth -2."""
    profile = _profile(state)
    if run is None:
        return profile[1][ci]
    cyc = state.cycles[ci] if run else ()
    return _quarters(tuple([cyc[p] for p in run]), False, profile[0])


def component_potential(state: GameState, ci: int) -> int:
    return segment_potential(state, ci)


def positive_component_sum(state: GameState) -> int:
    return _profile(state)[2]


def state_potential(state: GameState) -> int:
    return _profile(state)[3]


def xtzt_start(cycle: tuple[int, ...], x: int, z: int) -> Optional[int]:
    """The position from which a four-cycle reads (x, t, z, t) for some
    label t other than x and z, or None."""
    if len(cycle) == 4:
        for r in range(4):
            t = cycle[(r + 1) % 4]
            if cycle[r] == x and cycle[(r + 2) % 4] == z and cycle[(r + 3) % 4] == t and t not in (x, z):
                return r
    return None


def nesting_supports(state: GameState, host: int, run: tuple[int, ...]
                     ) -> Optional[tuple[int, Edge, tuple[int, ...]]]:
    """Where the supports of the run (x, y, z) on cycle ``host`` must lie:
    the cycle of x's other edge, y's other edge, and the run of the rest
    of y's cycle, in path order from the edge after y.  None unless the
    run has three distinct labels, none isolated on ``host``.

    Every label lies on at most two edges, so a run's labels determine
    its supports: the (x, t, z, t) cycle can only be the one through x's
    other edge, and the y-cycle only the one through y's.
    """
    cyc = state.cycles[host]
    if len(run) != 3:
        return None
    labels = tuple(cyc[p] for p in run)
    x, y, _ = labels
    counts = state.label_counts()
    if len(set(labels)) != 3 or any(counts[lab] == cyc.count(lab) for lab in labels):
        return None
    for ci, other in enumerate(state.cycles):
        if ci != host:
            for p, lab in enumerate(other):
                if lab == x:
                    xz_cycle = ci
                elif lab == y:
                    y_edge = (ci, p)
    n = len(state.cycles[y_edge[0]])
    return xz_cycle, y_edge, tuple((y_edge[1] + k) % n for k in range(1, n))


def is_nesting_path(state: GameState, host: int, run: tuple[int, ...], allow_pseudo: bool = False) -> bool:
    """Whether the positions ``run`` of cycle ``host`` form a nesting path.

    Base case: a single edge whose label is uniquely appearing.  Recursive
    case: labels (x, y, z), none isolated, where x and z also sit on a
    cycle reading (x, t, z, t) and y's other edge lies on a cycle made of
    that edge plus a nesting path.  :func:`nesting_supports` locates both
    cycles; supports that lead back to a run already read make no
    nesting path.

    ``allow_pseudo`` additionally accepts a three-edge run (x, m, x) whose
    outer label is isolated on its cycle — the stand-in used when a path
    plays the role of a uniquely appearing edge.  A label is isolated on
    a cycle when that cycle carries every edge of it.
    """
    counts = state.label_counts()
    seen = set()
    while (host, run) not in seen:
        seen.add((host, run))
        cyc = state.cycles[host]
        labels = [cyc[p] for p in run]
        if len(labels) == 1:
            return counts[labels[0]] == 1
        if len(labels) != 3:
            return False
        x, y, z = labels
        if allow_pseudo and x == z != y and counts[x] == cyc.count(x):
            return True
        supports = nesting_supports(state, host, run)
        if supports is None or xtzt_start(state.cycles[supports[0]], x, z) is None:
            return False
        _, (host, _), run = supports
    return False

"""Exact orientable genus of small graphs via rotation systems.

A rotation system (a cyclic order of incident darts at each vertex)
determines an embedding; tracing the face orbits and applying Euler's
formula ``V - E + F = 2 - 2g`` gives its genus.  The minimum over all
rotation systems is the graph's genus.  The search
(``cutgame.kernels.genus_sweep``, pure Python) starts at the lower
bound from edge counts and planarity and tries each genus in turn,
building rotation systems one face at a time and cutting every partial
system that can no longer close enough faces.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InputError
from ..kernels import genus_sweep
from .graph import Graph, is_connected


class RotationBudgetError(RuntimeError):
    """The genus search ran out of its node budget."""


@dataclass(frozen=True)
class GenusResult:
    """``systems_checked`` counts the search's nodes (choices among two
    or more rotation successors); ``swept_all`` says whether the search
    had to refute the lower bound, i.e. the genus exceeds it."""

    genus: int
    systems_checked: int
    swept_all: bool
    lower_bound: int


def _darts(g: Graph) -> tuple[list[int], list[list[int]], list[int]]:
    """Dart arrays: per-vertex out-dart lists and the reversal map."""
    degrees = [g.degree(v) for v in range(g.n)]
    vertex_darts: list[list[int]] = [[] for _ in range(g.n)]
    rev: list[int] = []
    for i, (u, v) in enumerate(g.edge_pairs()):
        d_uv, d_vu = 2 * i, 2 * i + 1
        vertex_darts[u].append(d_uv)
        vertex_darts[v].append(d_vu)
        rev.extend((d_vu, d_uv))
    return degrees, vertex_darts, rev


def is_planar(g: Graph) -> bool:
    import networkx as nx  # here, so that importing the graph suite does not load it

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edge_pairs())
    return nx.check_planarity(h)[0]


def genus_lower_bound(g: Graph) -> int:
    """Euler-formula edge bound, raised to one for non-planar graphs."""
    if g.n >= 3:
        lb = max(0, -(-(g.edge_count() - 3 * g.n + 6) // 6))
    else:
        lb = 0
    if lb == 0 and not is_planar(g):
        lb = 1
    return lb


def genus_exact(g: Graph, max_systems: int = 10_000_000) -> GenusResult:
    """Exact genus by branch-and-bound search from the lower bound up.

    Raises :class:`RotationBudgetError` when the search needs more than
    ``max_systems`` nodes; callers with larger graphs must declare the
    genus in corpus metadata.
    """
    if not is_connected(g):
        raise InputError("genus sweep needs a connected graph")
    if g.edge_count() == 0:
        return GenusResult(0, 0, False, 0)
    lb = genus_lower_bound(g)
    degrees, vertex_darts, rev = _darts(g)
    genus, checked, complete = genus_sweep(degrees, vertex_darts, rev, lb, max_systems)
    if not complete:
        raise RotationBudgetError(
            f"the genus search needs more than {max_systems} nodes (genus at least {genus})"
        )
    return GenusResult(genus, checked, genus > lb, lb)


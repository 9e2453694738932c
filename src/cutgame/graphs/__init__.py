from .bounds import BoundReport, check_bounds, classical_bound, improved_bound
from .corpus import CorpusEntry, bundled_corpus, check_corpus, entry_status, load_corpus, write_corpus
from .genus import GenusResult, RotationBudgetError, genus_exact, genus_lower_bound
from .graph import (
    Graph,
    bfs_distances,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_connected,
    is_geodesic,
    path_graph,
    petersen_graph,
    toroidal_grid,
)
from .graph6 import Graph6Error, emit_graph6, parse_graph6
from .guarding import GeodesicGuard, GuardReport, guard_geodesic, verify_guarding
from .pursuit import CopNumberAboveError, StateSpaceError, cop_number, cop_win

__all__ = [
    "BoundReport",
    "CopNumberAboveError",
    "CorpusEntry",
    "GenusResult",
    "GeodesicGuard",
    "Graph",
    "Graph6Error",
    "GuardReport",
    "RotationBudgetError",
    "StateSpaceError",
    "bfs_distances",
    "bundled_corpus",
    "check_bounds",
    "check_corpus",
    "classical_bound",
    "complete_bipartite",
    "complete_graph",
    "cop_number",
    "cop_win",
    "cycle_graph",
    "emit_graph6",
    "entry_status",
    "genus_exact",
    "genus_lower_bound",
    "guard_geodesic",
    "improved_bound",
    "is_connected",
    "is_geodesic",
    "load_corpus",
    "parse_graph6",
    "path_graph",
    "petersen_graph",
    "toroidal_grid",
    "verify_guarding",
    "write_corpus",
]

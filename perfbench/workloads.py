"""The benchmark's four workloads, their inputs and their pinned outputs.

A workload is a list of *passes*; a pass is a list of ops, and an op is
one call of a public cutgame verifier, solver or oracle together with
the check its output must pass.  A pass is what one user command would
do (one sweep of verdicts, or 1000 sampled plays), so its wall time is a
time to verdict.

The pins fix each op's verdict and the shape of its search (states
explored, terminal plays, values reached).  A change that shrinks the
search therefore fails the check instead of reading as faster.

Nothing here imports cutgame at module level: ``build`` does, so that
set-up time covers the package import.  Ops call cutgame's functions through
their modules' attributes, so that the tracer's wrappers see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

PASS = "pass"

# g0 -> (states_explored, terminal_plays, max_value_seen) of verify_marker_bound
MARKER_PINS = {
    0: (5, 2, 2), 1: (18, 6, 4), 2: (41, 12, 5), 3: (78, 20, 7), 4: (135, 32, 8),
    5: (218, 48, 10), 6: (335, 70, 11), 7: (498, 100, 12), 8: (719, 138, 14), 9: (1016, 188, 15),
}
# g0 -> states_explored of verify_refined
REFINED_PINS = {1: 1, 2: 2, 3: 4, 4: 2, 5: 7, 6: 10, 7: 9, 8: 17, 9: 23}
# g0 -> states of one sampled cutter play: one per value below the threshold
CUTTER_PINS = {2: 5, 3: 6}
PLAYS_PER_PASS = 1000
EXACT_PINS = {0: 2, 1: 4, 2: 5}


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # failure message, or None


def _fields(report, expected: dict) -> Optional[str]:
    got = {k: getattr(report, k) for k in expected}
    return None if got == expected else f"expected {expected}, got {got}"


def _equals(expected) -> Callable[[object], Optional[str]]:
    return lambda got: None if got == expected else f"expected {expected!r}, got {got!r}"


class Workload:
    name: str
    ops: list[Op]

    def build(self, seed: int) -> None:
        """Import cutgame and make the inputs; this is the set-up."""
        raise NotImplementedError

    def next_pass(self) -> list[Op]:
        return self.ops


class MarkerExhaustive(Workload):
    name = "marker-exhaustive"

    def build(self, seed: int) -> None:
        from cutgame import arena

        ops = []
        for g0, (states, terminal, top) in MARKER_PINS.items():
            ops.append(Op(f"verify_marker_bound({g0})", lambda g0=g0: arena.verify_marker_bound(g0),
                          lambda r, s=states, t=terminal, m=top: _fields(
                              r, {"verdict": PASS, "states_explored": s,
                                  "terminal_plays": t, "max_value_seen": m})))
        for g0, states in REFINED_PINS.items():
            ops.append(Op(f"verify_refined({g0})", lambda g0=g0: arena.verify_refined(g0),
                          lambda r, s=states: _fields(r, {"verdict": PASS, "states_explored": s})))
        self.ops = ops


class CutterSampled(Workload):
    """Single-play ops, half at g0=2 and half at g0=3, play seeds drawn
    from the workload seed; a pass is ``PLAYS_PER_PASS`` plays."""

    name = "cutter-sampled"

    def build(self, seed: int) -> None:
        from cutgame import arena

        self.arena = arena
        self.rng = random.Random(seed)

    def next_pass(self) -> list[Op]:
        ops = []
        for i in range(PLAYS_PER_PASS):
            g0 = 2 + i % 2
            budget = self.arena.SearchBudget(marker_sampling="random", sample_plays=1,
                                             seed=self.rng.getrandbits(32))
            ops.append(Op(f"verify_cutter_bound({g0}, seed={budget.seed})",
                          lambda g0=g0, b=budget: self.arena.verify_cutter_bound(g0, b),
                          lambda r, s=CUTTER_PINS[g0]: _fields(
                              r, {"verdict": PASS, "states_explored": s, "terminal_plays": 1})))
        return ops


class ExactSolve(Workload):
    name = "exact-solve"

    def build(self, seed: int) -> None:
        from cutgame import arena

        ops = [Op(f"exact_value({g0})", lambda g0=g0: arena.exact_value(g0), _equals(v))
               for g0, v in EXACT_PINS.items()]
        ops.append(Op("exact_value(1, use_memo=False)", lambda: arena.exact_value(1, use_memo=False),
                      _equals(EXACT_PINS[1])))
        self.ops = ops


class GraphOracles(Workload):
    name = "graph-oracles"

    def build(self, seed: int) -> None:
        from cutgame import graphs

        corpus = graphs.bundled_corpus()
        torus45, k6 = graphs.toroidal_grid(4, 5), graphs.complete_graph(6)
        torus33 = graphs.toroidal_grid(3, 3)
        self.ops = [
            Op("check_corpus(bundled_corpus())", lambda: graphs.check_corpus(corpus).ok, _equals(True)),
            Op("cop_number(toroidal_grid(4, 5), 3)", lambda: graphs.cop_number(torus45, 3), _equals(3)),
            Op("genus_exact(complete_graph(6))", lambda: graphs.genus_exact(k6).genus, _equals(1)),
            Op("genus_exact(toroidal_grid(3, 3))", lambda: graphs.genus_exact(torus33).genus, _equals(1)),
        ]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (MarkerExhaustive, CutterSampled, ExactSolve, GraphOracles)
}


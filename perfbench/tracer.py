"""Outside-in tracing of cutgame's layers for the benchmark.

The tracer wraps public functions of cutgame's modules from the outside:
no file of the package changes.  A function is replaced at *every*
binding site, not only in the module that defines it, because several
modules import their collaborators by name (``arena`` and ``strategy``
bind ``legal_replies`` and ``state_potential``, ``graphs.pursuit`` binds
``attractor``, ``graphs.genus`` binds ``genus_sweep`` and so on).  A
site that kept the original would silently drop its calls from the
trace, so :meth:`Tracer.install` checks afterwards that no loaded
``cutgame`` module still holds an unwrapped target.

Every call becomes a span (name, start, end, parent span, op id), kept
in flat arrays while the run lasts and written out when it ends.  A
layer's self time is its spans' durations minus the part of each span
that its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

# (layer name, module, attribute path).  Several targets may share a
# layer name; their calls and self times are summed.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("core.cutter_replies", "cutgame.core", "cutter_replies"),
    ("core.enumerate_marker_moves", "cutgame.core", "enumerate_marker_moves"),
    ("equivalence.legal_replies", "cutgame.equivalence", "legal_replies"),
    ("equivalence.precedes", "cutgame.equivalence", "precedes"),
    ("equivalence.canonical_key", "cutgame.equivalence", "canonical_key"),
    ("potential.state_potential", "cutgame.potential", "state_potential"),
    ("potential.segment_potential", "cutgame.potential", "segment_potential"),
    ("potential.component_potential", "cutgame.potential", "component_potential"),
    ("strategy.mark", "cutgame.strategy", "MarkerStrategy.mark"),
    ("strategy.advance", "cutgame.strategy", "MarkerStrategy.advance"),
    ("strategy.verify_bindings", "cutgame.strategy", "verify_bindings"),
    ("strategy.classify_configuration", "cutgame.strategy", "classify_configuration"),
    ("strategy.cutter_move", "cutgame.strategy", "cutter_move"),
    ("arena.ply_record", "cutgame.arena", "ply_record"),
    # the explorer loops live in these functions' own frames (and their
    # private helpers), so their self time is the loops' time
    ("arena.driver", "cutgame.arena", "verify_marker_bound"),
    ("arena.driver", "cutgame.arena", "verify_refined"),
    ("arena.driver", "cutgame.arena", "verify_cutter_bound"),
    ("arena.driver", "cutgame.arena", "exact_value"),
    ("graphs.pursuit.build", "cutgame.graphs.pursuit", "cop_win_positions"),
    ("kernels.attractor", "cutgame.kernels", "attractor"),
    ("kernels.genus_sweep", "cutgame.kernels", "genus_sweep"),
    ("graphs.genus.genus_exact", "cutgame.graphs.genus", "genus_exact"),
    ("graphs.genus.lower_bound", "cutgame.graphs.genus", "genus_lower_bound"),
    ("graphs.corpus.check_corpus", "cutgame.graphs.corpus", "check_corpus"),
)

# Sites known to import a target by name.  After patching each one that
# still exists must resolve to the wrapper; the generic scan in
# ``install`` covers any site added later.
BINDING_SITES: tuple[tuple[str, str], ...] = (
    ("cutgame.arena", "legal_replies"),
    ("cutgame.strategy", "legal_replies"),
    ("cutgame.arena", "state_potential"),
    ("cutgame.strategy", "state_potential"),
    ("cutgame.strategy", "segment_potential"),
    ("cutgame.arena", "verify_bindings"),
    ("cutgame.arena", "classify_configuration"),
    ("cutgame.arena", "cutter_move"),
    ("cutgame.arena", "ply_record"),
    ("cutgame.arena", "canonical_key"),
    ("cutgame.arena", "enumerate_marker_moves"),
    ("cutgame.equivalence", "cutter_replies"),
    ("cutgame.graphs.pursuit", "attractor"),
    ("cutgame.graphs.genus", "genus_sweep"),
    ("cutgame.graphs.corpus", "genus_exact"),
)

OP = "op"  # the benchmark's own span around one public call


class TracerError(RuntimeError):
    """Patching left a binding site unwrapped."""


def cutgame_modules() -> list:
    """The loaded modules of the cutgame package."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cutgame" or name.startswith("cutgame."))]


def _resolve(module: str, path: str):
    """(owner, attribute name, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = vars(owner).get(part) if hasattr(owner, "__dict__") else None
        if owner is None:
            return None
    fn = vars(owner).get(attr)
    if not callable(fn):
        return None
    return owner, attr, fn


@dataclass
class Tracer:
    """Span recorder plus the measured-from-outside counters."""

    names: list[str] = field(default_factory=list)
    name_ids: dict[str, int] = field(default_factory=dict)
    span_name: array = field(default_factory=lambda: array("i"))
    span_parent: array = field(default_factory=lambda: array("i"))
    span_op: array = field(default_factory=lambda: array("i"))
    span_start: array = field(default_factory=lambda: array("d"))
    span_end: array = field(default_factory=lambda: array("d"))
    counters: dict[str, float] = field(default_factory=dict)
    present: set[str] = field(default_factory=set)  # layers with a target found
    op_id: int = -1
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    # -- spans ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> float:
        t = time.perf_counter()
        self.span_end[idx] = t
        self._stack.pop()
        return t - self.span_start[idx]

    def run_op(self, fn: Callable[[], object]) -> object:
        """One benchmark op under its own root span and a fresh op id."""
        self.op_id += 1
        idx = self.begin(self._name_id(OP))
        try:
            return fn()
        finally:
            self.end(idx)

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def open_name(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self.names[self.span_name[self._stack[-1]]] if self._stack else None

    # -- patching ---------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        name_id = self._name_id(layer)
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            idx = begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = end(idx)
            if hook is not None:
                # runs outside the span: its cost lands in the caller's
                # self time, and open_name() names the caller
                hook(self, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__qualname__ = getattr(fn, "__qualname__", layer)
        return wrapper

    def install(self, hooks: Optional[dict[str, Callable]] = None) -> None:
        """Wrap every target at every site that binds it.

        ``hooks`` maps a target's attribute name to a callable run after
        each call with ``(tracer, result, elapsed)``.  Targets missing
        from the package are skipped; a layer none of whose targets was
        found stays out of ``present``.
        """
        hooks = hooks or {}
        # resolve (and so import) every target before scanning for sites
        resolved = [(layer, _resolve(module, path)) for layer, module, path in TARGETS]
        modules = cutgame_modules()
        originals: dict[int, Callable] = {}  # id(original) -> wrapper
        for layer, found in resolved:
            if found is None:
                continue
            owner, attr, fn = found
            self.present.add(layer)
            wrapper = self._wrap(layer, fn, hooks.get(attr))
            originals[id(fn)] = wrapper
            sites = [owner] if isinstance(owner, type) else modules
            for site in sites:
                for name, val in list(vars(site).items()):
                    if val is fn:
                        self._patched.append((site, name, fn))
                        setattr(site, name, wrapper)
        try:
            self.check_sites(originals)
        except TracerError:
            self.uninstall()
            raise

    def check_sites(self, originals: dict[int, Callable]) -> None:
        """Every known site resolves to a wrapper, and no loaded cutgame
        module still binds an original."""
        wrapper_ids = {id(w) for w in originals.values()}
        for module, attr in BINDING_SITES:
            mod = sys.modules.get(module)
            if mod is not None and attr in vars(mod) and id(vars(mod)[attr]) not in wrapper_ids:
                raise TracerError(f"{module}.{attr} does not resolve to the wrapper")
        for mod in cutgame_modules():
            for name, val in vars(mod).items():
                if id(val) in originals:
                    raise TracerError(f"{mod.__name__}.{name} still binds the unwrapped function")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        return self_times(self.span_start, self.span_end, self.span_parent)

    def write(self, path: str) -> None:
        """Spans as CSV: name, start and end in microseconds from the first
        span's start, parent span index (-1 for none), op id."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_us,end_us,parent,op\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(f"{names[self.span_name[i]]},{(self.span_start[i] - t0) * 1e6:.3f},"
                         f"{(self.span_end[i] - t0) * 1e6:.3f},{self.span_parent[i]},{self.span_op[i]}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result never goes negative.  Spans must
    be listed in start order, as a single-threaded recorder produces
    them.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the union of children seen so far
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]

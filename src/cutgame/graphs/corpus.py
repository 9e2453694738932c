"""Corpus handling: graph6 files with JSON sidecar metadata.

A corpus directory holds ``*.g6`` files, one graph6 line per graph.  An
optional sidecar ``<stem>.json`` carries a list of per-line objects
``{"name", "declared_genus", "expected_cop_number"}``: a string and two
non-negative integers, each optional, the integers also nullable; any
other key is an error.
Graphs whose genus search exceeds its budget need a declared genus to be checked.
A corpus holds at least one graph, and a sidecar has exactly one entry
per graph of its file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Optional

from ..errors import InputError
from .bounds import check_bounds
from .genus import RotationBudgetError, genus_exact
from .graph import Graph
from .graph6 import emit_graph6, parse_graph6, read_graph6_lines
from .pursuit import CopNumberAboveError, StateSpaceError, cop_number


@dataclass
class CorpusEntry:
    name: str
    graph: Graph
    declared_genus: Optional[int] = None
    expected_cop_number: Optional[int] = None


def load_corpus(directory: str) -> list[CorpusEntry]:
    """Every graph of the directory's ``*.g6`` files, in file order.
    Raises InputError when no file holds a graph, or when a sidecar's
    entry count differs from its file's graph count."""
    entries: list[CorpusEntry] = []
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".g6"):
            continue
        stem = fname[: -len(".g6")]
        path = os.path.join(directory, fname)
        lines = read_graph6_lines(path)
        meta = [{} for _ in lines]
        sidecar = os.path.join(directory, stem + ".json")
        if os.path.exists(sidecar):
            meta = _read_sidecar(sidecar)
            if len(meta) != len(lines):
                raise InputError(f"{sidecar}: {len(meta)} entries for the {len(lines)} graphs of {fname}")
        for i, line in enumerate(lines):
            m = meta[i]
            entries.append(
                CorpusEntry(
                    name=m.get("name", f"{stem}[{i}]"),
                    graph=parse_graph6(line),
                    declared_genus=m.get("declared_genus"),
                    expected_cop_number=m.get("expected_cop_number"),
                )
            )
    if not entries:
        raise InputError(f"{directory}: no graph in any *.g6 file")
    return entries


_SIDECAR_KEYS = ("name", "declared_genus", "expected_cop_number")


def _read_sidecar(path: str) -> list[dict]:
    """A sidecar's metadata objects; raises InputError naming the file and
    index of the first malformed entry, and the key it does not know."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise InputError(f"{path}: {exc}") from exc
    if not isinstance(meta, list):
        raise InputError(f"{path}: expected a list of objects, got {type(meta).__name__}")
    for i, m in enumerate(meta):
        if not isinstance(m, dict):
            raise InputError(f"{path}[{i}]: expected an object, got {type(m).__name__}")
        unknown = next((key for key in m if key not in _SIDECAR_KEYS), None)
        if unknown is not None:
            raise InputError(f"{path}[{i}]: unknown key {unknown!r}, expected {', '.join(_SIDECAR_KEYS)}")
        if not isinstance(m.get("name", ""), str):
            raise InputError(f"{path}[{i}]: name must be a string, got {m['name']!r}")
        for key in ("declared_genus", "expected_cop_number"):
            v = m.get(key)
            if v is not None and (type(v) is not int or v < 0):
                raise InputError(f"{path}[{i}]: {key} must be a non-negative integer or null, got {v!r}")
    return meta


def write_corpus(directory: str, entries: list[CorpusEntry], stem: str = "corpus") -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, stem + ".g6"), "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(emit_graph6(e.graph) + "\n")
    meta = [
        {
            "name": e.name,
            "declared_genus": e.declared_genus,
            "expected_cop_number": e.expected_cop_number,
        }
        for e in entries
    ]
    with open(os.path.join(directory, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)


def bundled_corpus() -> list[CorpusEntry]:
    """The corpus shipped with the package (``bundled/``): complete
    graphs, cycles, paths, the Petersen graph, K33, a toroidal grid, a
    wheel and the cube."""
    return load_corpus(os.path.join(os.path.dirname(__file__), "bundled"))


def entry_status(item: dict) -> tuple[str, str]:
    """A report item's status and the reason it gives: ``inconclusive``
    when a budget ran out or the cop number lies above ``k_max``,
    ``fail`` on an ``error`` or a broken bound (no reason for the
    latter), else ``pass``."""
    if "inconclusive" in item:
        return "inconclusive", item["inconclusive"]
    if "error" in item or not item["bounds"]["ok"]:
        return "fail", item.get("error", "")
    return "pass", ""


@dataclass
class CorpusReport:
    """``verdict`` is ``fail`` when some entry failed, else
    ``inconclusive`` when some entry was, else ``pass``: the verdict
    names of the engine's reports."""

    entries: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        statuses = {entry_status(item)[0] for item in self.entries}
        return next((s for s in ("fail", "inconclusive") if s in statuses), "pass")

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {"ok": self.ok, "entries": self.entries}


def check_corpus(
    entries: list[CorpusEntry],
    k_max: int = 4,
    max_systems: int = 2_000_000,
    max_positions: int = 5_000_000,
) -> CorpusReport:
    """Run the cop and genus oracles over a corpus and check every bound.

    The genus is computed exactly when the search fits the budget of
    ``max_systems`` nodes and cross-checked against any declared value;
    over-budget graphs use their declared genus (the report marks them
    ``declared``) and are inconclusive without one, as are graphs past
    ``max_positions`` or ``k_max``.  A ``k_max`` below one, or an entry
    an oracle rejects as bad input (a disconnected or empty graph),
    raises ``InputError``, the latter prefixed with the entry's name.
    """
    if k_max < 1:
        raise InputError("at least one cop is required")
    report = CorpusReport()
    for entry in entries:
        try:
            report.entries.append(_check_entry(entry, k_max, max_systems, max_positions))
        except InputError as exc:
            raise InputError(f"{entry.name}: {exc}") from exc
    return report


def _check_entry(entry: CorpusEntry, k_max: int, max_systems: int, max_positions: int) -> dict:
    """One entry's report item, ending in ``error``, ``inconclusive`` or ``bounds``."""
    item: dict = {"name": entry.name, "n": entry.graph.n, "edges": entry.graph.edge_count()}
    try:
        cop = cop_number(entry.graph, k_max, max_positions)
    except (CopNumberAboveError, StateSpaceError) as exc:
        item["inconclusive"] = f"cop oracle: {exc}"
        return item
    item["cop_number"] = cop
    if entry.expected_cop_number is not None and cop != entry.expected_cop_number:
        item["error"] = f"cop oracle found {cop}, metadata says {entry.expected_cop_number}"
        return item
    try:
        genus = genus_exact(entry.graph, max_systems).genus
    except RotationBudgetError as exc:
        if entry.declared_genus is None:
            item["inconclusive"] = f"genus oracle: {exc}, and no declared genus"
            return item
        item["genus"] = genus = entry.declared_genus
        item["genus_source"] = "declared"
    else:
        item["genus"] = genus
        item["genus_source"] = "exact"
        if entry.declared_genus is not None and genus != entry.declared_genus:
            item["error"] = f"genus oracle found {genus}, metadata says {entry.declared_genus}"
            return item
    item["bounds"] = check_bounds(entry.name, genus, cop).to_dict()
    return item

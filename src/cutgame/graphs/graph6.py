"""graph6 codec for simple undirected graphs.

Implements the standard format (short form below 63 vertices, the
4-byte long form up to 258047); malformed input is reported with the
byte offset of the offending character.
"""

from __future__ import annotations

from ..errors import InputError
from .graph import Graph

MAX_VERTICES = 258047


class Graph6Error(InputError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def _sextets(text: str, start: int) -> list[int]:
    out = []
    for i, ch in enumerate(text[start:], start):
        code = ord(ch) - 63
        if not (0 <= code < 64):
            raise Graph6Error(f"character {ch!r} outside graph6 alphabet", i)
        out.append(code)
    return out


def read_graph6_lines(path: str) -> list[str]:
    """The non-empty lines of a graph6 file, stripped; a file that is not
    UTF-8 is an InputError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [line for line in map(str.strip, fh) if line]
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from exc


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a graph."""
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[10:]
    if not text:
        raise Graph6Error("empty input", 0)
    (first,) = _sextets(text[:1], 0)
    if first < 63:
        n, start = first, 1
    else:
        if len(text) < 4:
            raise Graph6Error("truncated long-form vertex count", len(text))
        if ord(text[1]) - 63 == 63:
            raise Graph6Error("8-byte vertex counts not supported", 1)
        high, mid, low = _sextets(text[:4], 1)
        n = (high << 12) | (mid << 6) | low
        start = 4
    if n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} too large", 0)
    bits_needed = n * (n - 1) // 2
    codes = _sextets(text, start)
    if len(codes) * 6 < bits_needed:
        raise Graph6Error("truncated adjacency data", len(text))
    if len(codes) > (bits_needed + 5) // 6:
        raise Graph6Error("trailing data after adjacency bits", start + (bits_needed + 5) // 6)
    bits = []
    for code in codes:
        for k in range(5, -1, -1):
            bits.append((code >> k) & 1)
    if any(bits[bits_needed:]):
        raise Graph6Error("nonzero padding bits", len(text) - 1)
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph.from_edges(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 line (round-trips with the parser)."""
    n = g.n
    if n > MAX_VERTICES:
        raise InputError(f"vertex count {n} too large for graph6")
    if n < 63:
        head = chr(n + 63)
    else:
        head = chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for i in range(0, len(bits), 6):
        code = 0
        for b in bits[i : i + 6]:
            code = (code << 1) | b
        body.append(chr(code + 63))
    return head + "".join(body)

"""graph6 encoding and decoding.

graph6 is the compact ASCII format for simple undirected graphs: the vertex
count followed by the upper triangle of the adjacency matrix, read column by
column ((0,1), (0,2), (1,2), (0,3), ...), packed six bits per character with
every character offset by 63.  The optional ``>>graph6<<`` prefix is
accepted on input and never produced on output.

Decoding errors are reported distinctly: a malformed header, a payload that
is too short or too long for the stated vertex count, and characters outside
the printable 63..126 range each carry their own message.
"""

from __future__ import annotations

from .graphs import SimpleGraph, _as_simple

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Raised when a graph6 string cannot be decoded."""


def _decode_vertex_count(s: str) -> tuple[int, int]:
    """Return (n, payload offset).  Supports the 1- and 4-byte size forms."""
    if not s:
        raise Graph6Error("malformed header: empty graph6 string")
    c = ord(s[0])
    if c == 126:  # '~' introduces a multi-byte size
        if len(s) >= 2 and ord(s[1]) == 126:
            raise Graph6Error("malformed header: 8-byte size form is out of range here")
        if len(s) < 4:
            raise Graph6Error("malformed header: truncated 4-byte size form")
        n = 0
        for ch in s[1:4]:
            v = ord(ch) - 63
            if not 0 <= v < 64:
                raise Graph6Error(f"out-of-range character {ch!r} in size field")
            n = (n << 6) | v
        return n, 4
    if not 63 <= c <= 126:
        raise Graph6Error(f"out-of-range character {s[0]!r} in size field")
    return c - 63, 1


def parse_graph6(s: str) -> SimpleGraph:
    """Decode one graph6 string (optionally ``>>graph6<<``-prefixed)."""
    s = s.strip()
    if s.startswith(">>"):
        if not s.startswith(HEADER):
            raise Graph6Error("malformed header: expected '>>graph6<<' prefix")
        s = s[len(HEADER):]
    n, offset = _decode_vertex_count(s)
    payload = s[offset:]
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(payload) < nchars:
        raise Graph6Error(
            f"truncated payload: need {nchars} characters for n={n}, got {len(payload)}"
        )
    if len(payload) > nchars:
        raise Graph6Error(
            f"payload too long: need {nchars} characters for n={n}, got {len(payload)}"
        )
    bits: list[int] = []
    for ch in payload:
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise Graph6Error(f"out-of-range character {ch!r} in payload")
        bits.extend((v >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    i = 0
    for col in range(1, n):
        for row in range(col):
            if bits[i]:
                edges.append((row, col))
            i += 1
    return SimpleGraph.from_edges(n, edges)


def write_graph6(g: SimpleGraph) -> str:
    """Encode a simple graph; inverse of ``parse_graph6`` on its output."""
    g = _as_simple(g, "graph6")
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    else:
        raise ValueError("graph too large for the 4-byte graph6 size form")
    edge_set = g.edges
    bits: list[int] = []
    for col in range(1, n):
        for row in range(col):
            bits.append(1 if (row, col) in edge_set else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        v = 0
        for b in bits[i : i + 6]:
            v = (v << 1) | b
        chars.append(chr(v + 63))
    return head + "".join(chars)

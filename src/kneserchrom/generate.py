"""Exhaustive generation of small graphs and free trees up to isomorphism.

``enumerate_trees`` grows trees one pendant vertex at a time: every tree on
n vertices arises from a tree on n-1 vertices by attaching a leaf, so
attaching a leaf at every vertex of every (n-1)-vertex representative and
deduplicating is exhaustive.  The grown trees are deduplicated by their
centre-rooted AHU code, built by ``graphs._tree_code`` (the one code
builder; ``graphs._code_adjacency`` is the one decoder), and each distinct
code is canonicalised through the code-keyed ``graphs._tree_form``, so each
distinct tree costs one canonical search.  Representatives are materialised
from their canonical forms, which makes the output order (and the labelling
of each representative) deterministic.

``enumerate_graphs`` does the same by edge count: every graph with m+1
edges is a graph with m edges plus one edge.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import (
    CapExceededError,
    SimpleGraph,
    VERTEX_CAP,
    _check_vertex_cap,
    _tree_code,
    _tree_form,
    canonical_form,
    graph_from_form,
)

#: unlabelled free trees on 1..12 vertices (OEIS A000055)
FREE_TREE_COUNTS = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551)


def _check_size(n: int, what: str) -> None:
    """Refuse an ``n`` that is not an int (a bool included) or below 1."""
    if type(n) is not int:  # True == 1, but is no size
        raise ValueError(f"{what} needs an integer n (got {n!r})")
    if n < 1:
        raise ValueError(f"{what} needs n >= 1")


# typed: a cached 1 must not answer for True
@lru_cache(maxsize=VERTEX_CAP + 1, typed=True)
def enumerate_trees(n: int) -> tuple[SimpleGraph, ...]:
    """All free trees on ``n`` vertices, one canonical representative each.

    Deterministic: representatives are rebuilt from their canonical forms
    and sorted by form string.  An ``n`` that is not an int raises
    ``ValueError``.
    """
    _check_size(n, "tree enumeration")
    _check_vertex_cap(n, "tree enumeration")
    if n == 1:
        return (SimpleGraph.from_edges(1, []),)
    codes = {
        _tree_code(n, list(t.edges) + [(v, n - 1)])
        for t in enumerate_trees(n - 1)
        for v in range(t.n)
    }
    return tuple(graph_from_form(f) for f in sorted(_tree_form(c)[0] for c in codes))


@lru_cache(maxsize=VERTEX_CAP + 1, typed=True)
def enumerate_graphs(n: int) -> tuple[SimpleGraph, ...]:
    """All simple graphs on ``n`` vertices up to isomorphism.

    Grown level by level in the edge count: level m holds exactly the
    graphs with m edges, so the output is each level's canonical
    representatives sorted by form, level after level.  Intended for small
    n (the count explodes past n = 7); an ``n`` that is not an int raises
    ``ValueError``.
    """
    _check_size(n, "graph enumeration")
    if n > 7:
        raise CapExceededError(f"graph enumeration capped at 7 vertices (got {n})")
    out: list[SimpleGraph] = []
    level = {canonical_form(SimpleGraph.from_edges(n, []))}
    while level:
        reps = [graph_from_form(form) for form in sorted(level)]
        out += reps
        level = {
            canonical_form(g.with_edge(u, v))
            for g in reps
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in g.edges
        }
    return tuple(out)


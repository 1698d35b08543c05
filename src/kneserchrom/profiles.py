"""Rooted degree sequences of trees and the minimum-leaf profile.

A rooted vertex sequence of a tree T lists all vertices in non-decreasing
distance from a chosen root; in a tree every non-root vertex then has
exactly one neighbour that appears earlier (its parent), because adjacent
vertices always sit in consecutive breadth-first layers.  Reading off the
degrees along such a sequence gives a degree sequence of the rooting, and
r(T, v) is the lexicographically least one over all sequences rooted at v.

The least sequence is realised greedily: within each BFS layer the order of
vertices is free and contributes its degrees as a contiguous stretch, so
sorting every layer by ascending degree is optimal layer by layer and hence
globally (ties are broken by vertex label to fix one witness order).

r(T) = min over all vertices v of r(T, v); the vertices attaining the
minimum are the *minimum leaves* of T (for n >= 2 they are always leaves:
rooting at a leaf starts the sequence with degree 1, which beats any
internal root).  So r(T) and the minimum leaves both come from one pass
that roots only at the leaves (at the sole vertex when n = 1).  These
profiles are the carrier of the tree-reconstruction argument implemented
in ``kneserchrom.reconstruct``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import SimpleGraph, _tree_adjacency

DegreeProfile = tuple[int, ...]


@dataclass(frozen=True)
class RootedOrder:
    """A concrete minimum rooted vertex sequence of a tree.

    ``order[i]`` is the vertex at (0-based) position i, ``parent_pos[i]``
    the position of its parent (-1 for the root), and ``profile`` the
    degree read-off, i.e. r(T, order[0]).
    """

    order: tuple[int, ...]
    parent_pos: tuple[int, ...]
    profile: DegreeProfile


def rooted_order(g: SimpleGraph, root: int) -> RootedOrder:
    """The minimum rooted vertex sequence at ``root``.

    BFS layers from the root, each layer sorted by ascending degree with
    ties broken by vertex label.
    """
    adj = _tree_adjacency(g.n, g.edges)
    if adj is None:
        raise ValueError("operation defined for trees only")
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range")
    return _rooted_order(adj, [len(a) for a in adj], root)


def _rooted_order(adj: list[list[int]], deg: list[int], root: int) -> RootedOrder:
    parent = {root: -1}
    order: list[int] = []
    parent_pos: list[int] = []
    pos: dict[int, int] = {}
    layer = [root]
    while layer:
        layer.sort(key=lambda v: (deg[v], v))
        nxt: list[int] = []
        for v in layer:
            pos[v] = len(order)
            order.append(v)
            parent_pos.append(pos[parent[v]] if parent[v] != -1 else -1)
            for w in adj[v]:
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        layer = nxt
    profile = tuple(deg[v] for v in order)
    return RootedOrder(tuple(order), tuple(parent_pos), profile)


def min_rooted_degree_sequence(g: SimpleGraph, root: int) -> DegreeProfile:
    """r(T, root): the lexicographically least rooted degree sequence at ``root``."""
    return rooted_order(g, root).profile


def _minimum_rootings(g: SimpleGraph) -> tuple[RootedOrder, ...]:
    """The rooted orders attaining r(T), by root label, from one pass over
    the leaf roots.

    An internal root never attains r(T) (see the module docstring), so only
    vertices of degree at most 1 are tried: the leaves, or the sole vertex
    of the one-vertex tree.
    """
    adj = _tree_adjacency(g.n, g.edges)
    if adj is None:
        raise ValueError("operation defined for trees only")
    return _adjacency_rootings(adj)


def _adjacency_rootings(adj: list[list[int]]) -> tuple[RootedOrder, ...]:
    """``_minimum_rootings`` of a tree given by its adjacency lists, which
    are trusted to describe a tree on at least one vertex."""
    deg = [len(a) for a in adj]
    rootings = [_rooted_order(adj, deg, v) for v in range(len(adj)) if deg[v] <= 1]
    best = min(ro.profile for ro in rootings)
    return tuple(ro for ro in rootings if ro.profile == best)


def min_degree_sequence(g: SimpleGraph) -> DegreeProfile:
    """r(T) = min over all roots of r(T, root)."""
    return _minimum_rootings(g)[0].profile


def minimum_leaves(g: SimpleGraph) -> tuple[int, ...]:
    """All vertices attaining r(T), sorted by label.

    For n >= 2 these are leaves; for the one-vertex tree the sole vertex.
    """
    return tuple(ro.order[0] for ro in _minimum_rootings(g))

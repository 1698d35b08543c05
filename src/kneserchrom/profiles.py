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
internal root).  Two leaves with one neighbour are swapped by an
automorphism, so they have equal sequences.  So r(T) and the minimum leaves
come from one pass that roots one leaf per neighbour (the sole vertex when
n = 1), stopping each rooting once it exceeds the least sequence so far;
the minimum leaves are all leaves of the neighbours that attain it.  These
profiles are the carrier of the tree-reconstruction argument implemented
in ``kneserchrom.reconstruct``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import SimpleGraph, _check_vertex_cap, _tree_adjacency

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
    adj = _tree_lists(g)
    if type(root) is not int or not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range")
    return _rooted_order(adj, [len(a) for a in adj], root)


def _tree_lists(g: SimpleGraph) -> list[list[int]]:
    """Adjacency lists of the tree ``g``, refused above ``VERTEX_CAP``
    before any work: every profile roots the tree at each leaf."""
    _check_vertex_cap(g.n, "tree profiles")
    adj = _tree_adjacency(g.n, g.edges)
    if adj is None:
        raise ValueError("operation defined for trees only")
    return adj


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


def _least_rooting(g: SimpleGraph) -> RootedOrder:
    """The rooted order attaining r(T) at the label-smallest minimum leaf;
    the other minimum leaves are not rooted."""
    adj = _tree_lists(g)
    return _rooted_order(adj, [len(a) for a in adj], _least_leaves(adj)[1][0])


def _least_leaves(adj: list[list[int]]) -> tuple[DegreeProfile, tuple[int, ...]]:
    """r(T) and the minimum leaves, by label, of a tree given by its
    adjacency lists, which are trusted to describe a tree on at least one
    vertex; one leaf per neighbour is rooted (see the module docstring)."""
    deg = [len(a) for a in adj]
    # leaf -> its neighbour; the one-vertex tree's sole vertex is its own
    leaves = {v: adj[v][0] if adj[v] else v for v in range(len(adj)) if deg[v] <= 1}
    # a leaf's sequence opens with 1 and its neighbour's degree
    least = min(deg[w] for w in leaves.values())
    first: dict[int, int] = {}  # neighbour of least degree -> its least leaf
    for v, w in leaves.items():
        if deg[w] == least:
            first.setdefault(w, v)
    best: list[int] = []
    winners: set[int] = set()
    for w, v in first.items():
        seq = _layer_degrees(adj, deg, v, best)
        if seq is None:
            continue
        if seq != best:
            best, winners = seq, set()
        winners.add(w)
    return tuple(best), tuple(v for v, w in leaves.items() if w in winners)


def _layer_degrees(
    adj: list[list[int]], deg: list[int], root: int, bound: list[int]
) -> list[int] | None:
    """The degrees along the layer-sorted sequence at ``root``, or None as
    soon as a prefix of it exceeds a non-empty ``bound``."""
    seen = [False] * len(adj)
    seen[root] = True
    seq: list[int] = []
    layer = [root]
    while layer:
        seq += sorted([deg[v] for v in layer])
        if bound and seq > bound[: len(seq)]:
            return None
        # in a tree each vertex of the next layer has one neighbour in this one
        layer = [w for v in layer for w in adj[v] if not seen[w]]
        for w in layer:
            seen[w] = True
    return seq


def min_degree_sequence(g: SimpleGraph) -> DegreeProfile:
    """r(T) = min over all roots of r(T, root)."""
    return _least_leaves(_tree_lists(g))[0]


def minimum_leaves(g: SimpleGraph) -> tuple[int, ...]:
    """All vertices attaining r(T), sorted by label.

    For n >= 2 these are leaves; for the one-vertex tree the sole vertex.
    """
    return _least_leaves(_tree_lists(g))[1]

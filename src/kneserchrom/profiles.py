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
the minimum leaves are all leaves of the neighbours that attain it, and the
pass keeps the rooted order at the least of them.  Every rooting, bounded
or not, is the one layer-sorted walk ``_rooted_order``, so r(T), r(T, v),
the minimum leaves and the least rooted order all read from it.  These
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
    return _rooted_order(adj, root)


def _tree_lists(g: SimpleGraph) -> list[list[int]]:
    """Adjacency lists of the tree ``g``, refused above ``VERTEX_CAP``
    before any work: every profile roots the tree at each leaf."""
    _check_vertex_cap(g.n, "tree profiles")
    adj = _tree_adjacency(g.n, g.edges)
    if adj is None:
        raise ValueError("operation defined for trees only")
    return adj


def _rooted_order(
    adj: list[list[int]], root: int, bound: DegreeProfile = ()
) -> RootedOrder | None:
    """The layer-sorted rooting at ``root`` of a tree given by adjacency
    lists, the package's only one; or None as soon as a prefix of its
    degree sequence exceeds a non-empty ``bound``."""
    seen = [False] * len(adj)
    seen[root] = True
    order, parent_pos, profile = [root], [-1], [len(adj[root])]
    start = 0
    while start < len(order):
        if bound and tuple(profile) > bound[: len(profile)]:
            return None
        # the next layer, each vertex with its parent's position
        layer = []
        for i in range(start, len(order)):
            for w in adj[order[i]]:
                if not seen[w]:
                    seen[w] = True
                    layer.append((len(adj[w]), w, i))
        start = len(order)
        for d, w, i in sorted(layer):
            order.append(w)
            parent_pos.append(i)
            profile.append(d)
    return RootedOrder(tuple(order), tuple(parent_pos), tuple(profile))


def min_rooted_degree_sequence(g: SimpleGraph, root: int) -> DegreeProfile:
    """r(T, root): the lexicographically least rooted degree sequence at ``root``."""
    return rooted_order(g, root).profile


def _least_leaves(adj: list[list[int]]) -> tuple[RootedOrder, tuple[int, ...]]:
    """The rooted order at the label-smallest minimum leaf, whose profile
    is r(T), and the minimum leaves by label, of a tree given by its
    adjacency lists, which are trusted to describe a tree on at least one
    vertex; one leaf per neighbour is rooted, each bounded by the least
    rooting so far (see the module docstring)."""
    deg = [len(a) for a in adj]
    # leaf -> its neighbour; the one-vertex tree's sole vertex is its own
    leaves = {v: adj[v][0] if adj[v] else v for v in range(len(adj)) if deg[v] <= 1}
    # a leaf's sequence opens with 1 and its neighbour's degree
    least = min(deg[w] for w in leaves.values())
    first: dict[int, int] = {}  # neighbour of least degree -> its least leaf
    for v, w in leaves.items():
        if deg[w] == least:
            first.setdefault(w, v)
    best: RootedOrder | None = None
    winners: set[int] = set()
    # the least leaves come in label order, so the first rooting to attain
    # the final minimum is the one at the label-smallest minimum leaf
    for w, v in first.items():
        ro = _rooted_order(adj, v, best.profile if best else ())
        if ro is None:
            continue
        if best is None or ro.profile != best.profile:
            best, winners = ro, set()
        winners.add(w)
    return best, tuple(v for v, w in leaves.items() if w in winners)


def min_degree_sequence(g: SimpleGraph) -> DegreeProfile:
    """r(T) = min over all roots of r(T, root)."""
    return _least_leaves(_tree_lists(g))[0].profile


def minimum_leaves(g: SimpleGraph) -> tuple[int, ...]:
    """All vertices attaining r(T), sorted by label.

    For n >= 2 these are leaves; for the one-vertex tree the sole vertex.
    """
    return _least_leaves(_tree_lists(g))[1]

"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: plain exhaustive enumeration and
textbook recursions, sharing no code with the library under test except
``canonical_form`` and ``lambda_class``, which name isomorphism classes of
graphs and of block multisets (``test_graphs`` checks them against the tree
code and by relabelling), and ``every_leaf_rootings``, which roots with the
package's ``profiles._rooted_order``.  Slow but obviously correct at the
sizes the tests use.  The last section is the exception: test-only views of the
series internals, which the package itself never needs.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, product

from kneserchrom import (
    CapExceededError,
    Lambda,
    SimpleGraph,
    canonical_form,
    is_connected,
    kneser,
    lambda_class,
    profiles,
)


def brute_direct_eval(n, edges, k, m, values, prime):
    """Sum of prod_v values[phi(v)] over all maps phi into k-subsets of
    {1..m} with disjoint blocks on edges -- by full enumeration."""
    blocks = [tuple(c) for c in combinations(range(1, m + 1), k)]
    total = 0
    for phi in product(blocks, repeat=n):
        if all(not set(phi[u]) & set(phi[v]) for u, v in edges):
            p = 1
            for b in phi:
                p = p * values[b] % prime
            total = (total + p) % prime
    return total


def brute_orbit_sum(w, blocks, m, values):
    """Orbit sum of a labelled block multiset on symbols 0..w-1, as an exact
    integer, at a value map on the blocks of {1..m}.

    Every injective labelling into {1..m} is tried, with a sorted key per
    block.  Each distinct relabelled multiset is one monomial of the orbit,
    so the sum runs over the distinct ones: no automorphism count needed.
    """
    images = set()
    for perm in permutations(range(1, m + 1), w):
        images.add(tuple(sorted(tuple(sorted(perm[s] for s in b)) for b in blocks)))
    total = 0
    for image in images:
        p = 1
        for b in image:
            p *= values[b]
        total += p
    return total


def brute_automorphism_count(n, pairs):
    """Vertex permutations of a multigraph on 0..n-1 that keep its multiset
    of edges (``pairs``, one entry per parallel edge), by trying all n!."""
    edges = sorted(tuple(sorted(p)) for p in pairs)
    return sum(
        sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges) == edges
        for perm in permutations(range(n))
    )


def brute_canonical_edge_list(n, weighted_edges):
    """Least sorted relabelled edge list of a multigraph on 0..n-1 (given as
    ``((u, v), multiplicity)`` pairs) over every labelling that respects the
    stable degree refinement, with no twin pruning, and the number of those
    labellings that reach it.  Automorphisms keep stable colours, so the
    labellings that reach it form one coset of the automorphism group, and
    the number is the group's order.

    Vertices start coloured by their multiplicity-weighted degree signature
    and are re-coloured by (colour, sorted (multiplicity, neighbour colour)
    pairs) until the partition stops splitting; the classes then take
    positions 0..n-1 in the order of their sorted last signatures.  Every
    ordering of every class is tried."""
    mat = [[0] * n for _ in range(n)]
    for (u, v), mult in weighted_edges:
        mat[u][v] = mat[v][u] = mult
    sig = [tuple(sorted(m for m in row if m)) for row in mat]
    while True:
        order = sorted(set(sig))
        color = [order.index(s) for s in sig]
        last = [
            (color[v], tuple(sorted((mat[v][w], color[w]) for w in range(n) if mat[v][w])))
            for v in range(n)
        ]
        if len(set(last)) == len(set(sig)):
            break
        sig = last
    classes = [[v for v in range(n) if last[v] == s] for s in sorted(set(last))]
    edges = [pair for pair, mult in weighted_edges for _ in range(mult)]
    best, hits = None, 0
    for orders in product(*(permutations(cls) for cls in classes)):
        pos = {v: p for p, v in enumerate(v for order in orders for v in order)}
        out = sorted(tuple(sorted((pos[u], pos[v]))) for u, v in edges)
        if best is None or out < best:
            best, hits = out, 0
        hits += out == best
    return [list(e) for e in best], hits


def chromatic_polynomial_value(n, edges, m):
    """Proper m-colouring count by deletion-contraction.

    chi(G) = chi(G - e) - chi(G / e), with m^n for the edgeless graph.
    Contraction may create parallel edges; they collapse, since colouring
    constraints do not stack.
    """
    edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
    if not edges:
        return m**n
    u, v = edges[0]
    deleted = chromatic_polynomial_value(n, edges[1:], m)
    merged = set()
    for a, b in edges[1:]:
        a = u if a == v else a
        b = u if b == v else b
        if a != b:
            merged.add((min(a, b), max(a, b)))
    relabel = {w: (w if w < v else w - 1) for w in range(n) if w != v}
    contracted = chromatic_polynomial_value(
        n - 1, [(relabel[a], relabel[b]) for a, b in merged], m
    )
    return deleted - contracted


def brute_min_profile(n, edges, root):
    """Lexicographically least degree sequence over all layer orderings.

    Vertices are laid out layer by layer (BFS distance from the root); any
    permutation inside a layer is allowed.  Tries them all.
    """
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    deg = {v: len(adj[v]) for v in range(n)}
    layers = [[root]]
    seen = {root}
    while len(seen) < n:
        nxt = sorted(
            w for v in layers[-1] for w in adj[v] if w not in seen
        )
        layers.append(nxt)
        seen.update(nxt)
    best = None
    for perms in product(*(list(permutations(layer)) for layer in layers)):
        profile = tuple(deg[v] for layer in perms for v in layer)
        if best is None or profile < best:
            best = profile
    return best


def every_leaf_rootings(adj):
    """The least rooted orders of a tree given by adjacency lists, rooted at
    every vertex of degree at most 1, keeping those of least profile, by
    label.  Each rooting is the package's ``profiles._rooted_order``, which
    ``test_profiles`` checks against ``brute_min_profile``: only the choice
    of roots (one leaf per neighbour, with an early stop) is under test."""
    deg = [len(a) for a in adj]
    rootings = [profiles._rooted_order(adj, deg, v) for v in range(len(adj)) if deg[v] <= 1]
    best = min(ro.profile for ro in rootings)
    return tuple(ro for ro in rootings if ro.profile == best)


def rooted_code(adj, root):
    """The AHU code of a tree given by adjacency lists, rooted at ``root``:
    each vertex's children's codes sorted and wrapped in one bracket pair."""

    def code(v, parent):
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return code(root, -1)


def centre_code(adj):
    """The AHU code of a tree given by adjacency lists, rooted at its
    centre: leaves are peeled layer by layer until the one or two centre
    vertices remain, and with two centres the lesser rooted code is taken."""
    n = len(adj)
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        peeled = []
        for v in layer:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    peeled.append(w)
        layer = peeled
    return min(rooted_code(adj, c) for c in layer)


def reference_search_order(n, edges):
    """``kneser._search_order`` by a textbook queue BFS, with components
    found by relaxing least-vertex labels along the edges until they settle.

    Components come in order of their least vertex; each is searched from
    its vertex of largest degree (least label on ties), taking neighbours
    in increasing label order.  Returns the order and, for each position,
    the positions of its earlier neighbours.
    """
    adj = [sorted({w for e in edges if v in e for w in e if w != v}) for v in range(n)]
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            low = min(label[u], label[v])
            if label[u] != low or label[v] != low:
                label[u] = label[v] = low
                changed = True
    order = []
    for root in sorted(set(label)):
        comp = [v for v in range(n) if label[v] == root]
        start = max(comp, key=lambda v: (len(adj[v]), -v))
        queue, seen = [start], {start}
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    earlier = [[order.index(w) for w in adj[v] if order.index(w) < i] for i, v in enumerate(order)]
    return order, earlier


def all_block_bijections(n, edges, blocks):
    """Every bijection of 0..n-1 onto the block multiset with intersecting
    blocks on edges, by trying all slot permutations (deduplicated)."""
    out = set()
    for perm in permutations(range(n)):
        phi = {v: tuple(blocks[perm[v]]) for v in range(n)}
        if all(set(phi[u]) & set(phi[v]) for u, v in edges):
            out.add(tuple(sorted(phi.items())))
    return [dict(items) for items in sorted(out)]


def set_placement(g, blocks):
    """The first placement of ``kneser._placement``, by the set-based
    search it replaced: intersection rows of tuples of bools, twin groups
    keyed by equal rows, and a loop over every group at each position.

    Vertices come in ``reference_search_order``; groups are tried in the
    order of their least block, skipping a group with no capacity left or
    whose meeting blocks cannot host the vertex's degree; a complete
    placement hands each group's blocks out in sorted order."""
    counts = {}
    for b in blocks:
        counts[b] = counts.get(b, 0) + 1
    distinct = sorted(counts)
    sets = [set(b) for b in distinct]
    twins = {}
    for b, sa in zip(distinct, sets):
        row = tuple(bool(sa & sb) for sb in sets)
        twins.setdefault(row, []).extend([b] * counts[b])
    groups = list(twins.values())
    inter = [[bool(set(ga[0]) & set(gb[0])) for gb in groups] for ga in groups]
    caps = [len(members) for members in groups]
    avail = [sum(c for c, meets in zip(caps, row) if meets) - 1 for row in inter]
    order, earlier = reference_search_order(g.n, g.sorted_edges())
    deg = [sum(v in e for e in g.edges) for v in range(g.n)]
    chosen = []

    def extend(i):
        if i == len(order):
            return True
        for gi in range(len(groups)):
            if caps[gi] == 0 or avail[gi] < deg[order[i]]:
                continue
            if all(inter[gi][chosen[j]] for j in earlier[i]):
                caps[gi] -= 1
                chosen.append(gi)
                if extend(i + 1):
                    return True
                chosen.pop()
                caps[gi] += 1
        return False

    if not extend(0):
        return None
    handout = [iter(members) for members in groups]
    return tuple(sorted((v, next(handout[gi])) for v, gi in zip(order, chosen)))


def prufer_decode(seq, n):
    """Textbook Pruefer decoding, independent of the package's decoder."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        for leaf in range(n):
            if degree[leaf] == 1:
                edges.append((min(leaf, v), max(leaf, v)))
                degree[leaf] -= 1
                degree[v] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((min(last), max(last)))
    return edges



def prufer_tree(seq, n):
    """Decode a Pruefer sequence of length n-2 into a labelled tree on n
    vertices, with a heap of leaves; checked against ``prufer_decode``."""
    if n < 2:
        raise ValueError("Pruefer decoding needs n >= 2")
    if len(seq) != n - 2:
        raise ValueError("Pruefer sequence must have length n-2")
    if any(not 0 <= v < n for v in seq):
        raise ValueError("Pruefer sequence labels must lie in 0..n-1")
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, w))
    return SimpleGraph.from_edges(n, edges)

@cache
def labelled_trees(n):
    """Every labelled tree on n vertices with its canonical form: one
    (edges, form) per Pruefer sequence, in ``itertools.product`` order; for
    n = 1 the one-vertex tree.  Cached, so every scan of one n pays its
    canonical forms once."""
    edge_lists = [[]] if n == 1 else [
        prufer_decode(list(seq), n) for seq in product(range(n), repeat=n - 2)
    ]
    return tuple(
        (tuple(edges), canonical_form(SimpleGraph.from_edges(n, edges)))
        for edges in edge_lists
    )


def brute_tree_classes(n, edges):
    """Tree classes of a tree on n vertices, from all 2^(n-1) breadth-first
    fills rooted at vertex 0.

    The root gets the block {0, 1}; the vertex at breadth-first position i
    gets {s, i + 1} for each symbol s of its parent's block.  Each fill's
    symbol tree on n + 1 symbols is named by its canonical form."""
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order, parent = [0], {0: None}
    for v in order:  # grows while it is read: a breadth-first queue
        for w in sorted(adj[v]):
            if w not in parent:
                parent[w] = v
                order.append(w)
    fills = [{0: (0, 1)}]
    for i, v in enumerate(order[1:], start=1):
        fills = [{**f, v: (s, i + 1)} for f in fills for s in f[parent[v]]]
    return frozenset(
        (canonical_form(SimpleGraph.from_edges(n + 1, f.values())),) for f in fills
    )


def _class_representative(pclass):
    """(symbol count, blocks) of a class: each component string
    ``"w:[[..],..]"`` read as JSON and placed on its own symbol interval."""
    blocks, offset = [], 0
    for comp in pclass:
        w, pairs = comp.split(":", 1)
        blocks += [tuple(s + offset for s in b) for b in json.loads(pairs)]
        offset += int(w)
    return offset, blocks


def brute_merge_expansion(t_class, comp):
    """Expansion of O_{t_class} * O_{comp} in disjoint-support classes, as
    {class: coefficient}, by counting splits.

    The candidates are the classes of every injective image of ``comp``'s
    representative onto the symbols of ``t_class``'s representative plus
    fresh ones, with no ordering of the fresh symbols imposed.  The
    coefficient of a candidate D is the number of distinct sub-multisets of
    D's representative that form ``comp`` while their complement forms
    ``t_class``, each part named by ``lambda_class``."""
    w_t, t_blocks = _class_representative(t_class)
    w_c, c_blocks = _class_representative((comp,))
    k = len(c_blocks[0])

    def name(blocks):
        return lambda_class(Lambda.from_blocks(k, blocks))

    overlays = {
        tuple(sorted(t_blocks + [tuple(sorted(image[s] for s in b)) for b in c_blocks]))
        for image in permutations(range(w_t + w_c), w_c)
    }
    out = {}
    for cand in {name(blocks) for blocks in overlays}:
        rep = [tuple(sorted(b)) for b in _class_representative(cand)[1]]
        beta = 0
        for sub in {tuple(sorted(s)) for s in combinations(rep, len(c_blocks))}:
            rest = list(rep)
            for b in sub:
                rest.remove(b)
            beta += name(sub) == (comp,) and name(rest) == tuple(t_class)
        out[cand] = beta
    return out


# ---------------------------------------------------------------------------
# test-only views of the series internals
# ---------------------------------------------------------------------------
#
# Unlike the oracles above, these read the package's own component tables
# (``kneser._component_weights``, ``kneser._spanning_classes``): they expose
# intermediate class sets that only the tests inspect.


def enumerate_admissible_classes(g, k):
    """All classes admissible by a connected graph, as one-component classes."""
    kneser._check_k(k)
    if g.n < 1:
        raise ValueError("need at least one vertex")
    if g.n > kneser.PSUM_VERTEX_CAP:
        raise CapExceededError(
            f"class enumeration capped at {kneser.PSUM_VERTEX_CAP} vertices (got {g.n})"
        )
    if not is_connected(g):
        raise ValueError("class enumeration is defined for connected graphs")
    return frozenset((c,) for c in kneser._component_weights(canonical_form(g), k))


def admissible_for_subgraph(g, subset, k):
    """Classes admissible by the spanning subgraph (V(G), subset).

    The subgraph splits into components; each contributes its own class set
    and the results combine as multiset unions (distinct symbol supports).
    """
    kneser._check_k(k)
    subset = [tuple(sorted(e)) for e in subset]
    for e in subset:
        if e not in g.edges:
            raise ValueError(f"edge {e} is not an edge of the graph")
    if g.n > kneser.PSUM_VERTEX_CAP:
        raise CapExceededError(
            f"class enumeration capped at {kneser.PSUM_VERTEX_CAP} vertices (got {g.n})"
        )
    return frozenset(kneser._spanning_classes(SimpleGraph.from_edges(g.n, subset), k))


def spanning_class_union(g, k):
    """The plain union of ``admissible_for_subgraph`` over every spanning
    subgraph of ``g``."""
    edges = g.sorted_edges()
    return frozenset().union(
        *(
            admissible_for_subgraph(g, subset, k)
            for r in range(len(edges) + 1)
            for subset in combinations(edges, r)
        )
    )


@dataclass(frozen=True)
class SupportReport:
    """Signed support vs. plain union of admissible classes.

    ``cancelled`` lists classes admissible by some spanning subgraph whose
    signed coefficients sum to zero.  It is computed, not assumed empty:
    already the k = 2 indicator series of K5 cancels some classes.
    """

    signed: frozenset
    union: frozenset
    cancelled: frozenset


def lambda_support(g, k, *, coeffs="witness"):
    """Support of the series alongside the union over all spanning subgraphs.

    For k = 1 the union is the signed support: each nonzero partition product
    has sign (-1)^(n - #blocks) and T(1, 0) >= 1 for a connected graph, so
    nothing cancels."""
    kneser._check_series_args(g.n, len(g.edges), k, coeffs, "support computation")
    if k == 1:
        terms = union = kneser._psum_k1(g)
    else:
        terms = kneser._psum_subsets(g, k, coeffs == "witness")
        union = spanning_class_union(g, k)
    signed, union = frozenset(terms), frozenset(union)
    return SupportReport(signed, union, union - signed)

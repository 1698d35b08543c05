"""Small-graph substrate: simple graphs, edge multigraphs, block multisets.

Everything downstream (degree profiles, power-sum expansions, reconstruction)
runs on three immutable value types:

* ``SimpleGraph``   -- a labelled simple graph on vertices ``0..n-1``;
* ``Multigraph``    -- a loopless multigraph, used for the symbol graph
  spanned by a multiset of 2-element blocks (repeated blocks = parallel
  edges);
* ``Lambda``        -- a multiset of k-element blocks of non-negative
  integer symbols (k = 1 or 2), i.e. one candidate term of the invariant.

Isomorphism is decided through ``canonical_form``, which produces a short
deterministic string (``"n:[[u,v],...]"``) naming the isomorphism class.
The canonicaliser is a brute-force minimisation over vertex relabellings,
restricted to permutations that respect the stable iterated degree
refinement and deduplicated on twin vertices; that restriction is
isomorphism-invariant, so equal strings still hold exactly for isomorphic
inputs and the search stays tractable on the small, mostly rigid graphs
this package works with.  The same search counts automorphisms
(``automorphism_count``).  Trees are looked up by their centre-rooted AHU
code first, so each distinct tree is searched once.  This module holds the
one code builder (``_tree_code``) and the one decoder (``_code_adjacency``);
every other algorithm on tree codes lives in ``trees.py``.  A hard vertex
cap keeps accidental huge inputs from hanging the process.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

# Hard ceiling for canonicalisation / isomorphism tests.  Everything the
# package verifies lives at or below 13 vertices (appending a pendant edge
# to a 12-vertex tree); 14 leaves one step of headroom.
VERTEX_CAP = 14


class CapExceededError(ValueError):
    """Raised when an operation is asked to exceed its vertex/size cap."""


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"loop edge ({u},{v}) is not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """Simple undirected graph on vertex set {0, ..., n-1}."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges) -> "SimpleGraph":
        return SimpleGraph(n, frozenset(_normalize_edge(u, v) for u, v in edges))

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def degrees(self) -> list[int]:
        d = [0] * self.n
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    def with_edge(self, u: int, v: int) -> "SimpleGraph":
        return SimpleGraph(self.n, self.edges | {_normalize_edge(u, v)})

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class Multigraph:
    """Loopless multigraph; ``edges`` maps each sorted pair to its multiplicity."""

    n: int
    edges: tuple[tuple[tuple[int, int], int], ...]  # ((u,v), mult), sorted by pair

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for (u, v), mult in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if mult < 1:
                raise ValueError("edge multiplicity must be positive")

    @staticmethod
    def from_pairs(n: int, pairs) -> "Multigraph":
        counts = Counter(_normalize_edge(u, v) for u, v in pairs)
        return Multigraph(n, tuple(sorted(counts.items())))

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges with multiplicity, as a sorted list of repeated pairs."""
        out: list[tuple[int, int]] = []
        for (u, v), mult in self.edges:
            out.extend([(u, v)] * mult)
        return sorted(out)

    def edge_count(self) -> int:
        return sum(mult for _, mult in self.edges)

    def simple(self) -> SimpleGraph:
        return SimpleGraph(self.n, frozenset(pair for pair, _ in self.edges))


@dataclass(frozen=True)
class Lambda:
    """A multiset of k-element blocks of symbols (k = 1 or 2).

    Blocks are stored as sorted tuples; the multiset itself is a sorted
    tuple, so two equal multisets compare equal structurally.
    """

    k: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.k not in (1, 2):
            raise ValueError("only k = 1 and k = 2 are supported")
        for b in self.blocks:
            if len(b) != self.k or len(set(b)) != self.k:
                raise ValueError(f"block {b} is not a {self.k}-element set")
            if any(s < 0 for s in b):
                raise ValueError(f"block {b} has a negative symbol")
            if tuple(sorted(b)) != b:
                raise ValueError(f"block {b} is not sorted")
        if tuple(sorted(self.blocks)) != self.blocks:
            raise ValueError("blocks must be stored sorted")

    @staticmethod
    def from_blocks(k: int, blocks) -> "Lambda":
        return Lambda(k, tuple(sorted(tuple(sorted(b)) for b in blocks)))

    def symbols(self) -> list[int]:
        return sorted({s for b in self.blocks for s in b})

    def __len__(self) -> int:
        return len(self.blocks)


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self, items) -> None:
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


def graph_components(g: SimpleGraph) -> list[list[int]]:
    """Vertex sets of the connected components, each sorted, ordered by minimum."""
    uf = _UnionFind(range(g.n))
    for u, v in g.edges:
        uf.union(u, v)
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(uf.find(v), []).append(v)
    return sorted((sorted(vs) for vs in groups.values()), key=lambda vs: vs[0])


def connected_components(lam: Lambda) -> list[Lambda]:
    """Split a block multiset by symbol connectivity.

    Two blocks land in the same part when they are linked by a chain of
    shared symbols.  The parts are again ``Lambda`` values and their union
    (as a multiset) is the input.
    """
    if not lam.blocks:
        return []
    uf = _UnionFind({s for b in lam.blocks for s in b})
    for b in lam.blocks:
        for s in b[1:]:
            uf.union(b[0], s)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for b in lam.blocks:
        groups.setdefault(uf.find(b[0]), []).append(b)
    parts = [Lambda.from_blocks(lam.k, bs) for bs in groups.values()]
    parts.sort(key=lambda p: p.blocks)
    return parts


def is_connected(g: SimpleGraph) -> bool:
    return g.n <= 1 or len(graph_components(g)) == 1


def is_tree(g: SimpleGraph | Multigraph) -> bool:
    """Connected and acyclic.  A multigraph with a repeated edge is never a tree."""
    pairs = g.edge_list() if isinstance(g, Multigraph) else g.edges
    return _tree_adjacency(g.n, pairs) is not None


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def _adjacency_matrix(n: int, weighted_edges) -> list[list[int]]:
    mat = [[0] * n for _ in range(n)]
    for (u, v), mult in weighted_edges:
        mat[u][v] = mult
        mat[v][u] = mult
    return mat


def _refinement_classes(n: int, mat: list[list[int]]) -> list[list[int]]:
    """Stable iterated degree refinement, classes in a label-independent order.

    Vertices start coloured by their multiplicity-weighted degree signature
    and are refined by the multiset of (edge multiplicity, neighbour colour)
    pairs until the partition stops splitting.  Class order is inherited
    from sorted signatures, so it does not depend on the input labelling.
    """
    sig: list[tuple] = [
        tuple(sorted(m for m in mat[v] if m)) for v in range(n)
    ]
    order = sorted(set(sig))
    color = [order.index(s) for s in sig]
    while True:
        sig = [
            (color[v], tuple(sorted((mat[v][w], color[w]) for w in range(n) if mat[v][w])))
            for v in range(n)
        ]
        order = sorted(set(sig))
        new_color = [order.index(s) for s in sig]
        if len(order) == len(set(color)):
            color = new_color
            break
        color = new_color
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(color[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def _canonical_edge_list(n: int, weighted_edges) -> tuple[list[list[int]], int]:
    """Lexicographically least relabelled edge list over the searched orbit,
    and the order of the automorphism group.

    The search assigns positions 0..n-1 class by class (classes from the
    stable refinement, in their canonical order), skipping a candidate
    vertex whenever swapping it with an already-tried candidate is an
    automorphism (twin vertices), and keeps the least sorted edge
    multiset seen at the leaves, counting the leaves that reach it.

    Why the count gives |Aut|: call u and v twins when mat[u][w] = mat[v][w]
    for every w outside {u, v}.  This is an equivalence relation, and each
    swap of two twins is an automorphism, so the twin group
    T = prod Sym(twin class) is a subgroup of Aut.  Since tried twins are
    skipped, each twin class is placed in slot order, and the search visits
    exactly one labelling per orbit of T.  Automorphisms keep stable
    colours, so the class-respecting labellings that reach the least edge
    list form one coset of Aut, of size |Aut|.  T acts freely on that
    coset, hence |Aut| = (leaves reaching the least list) * |T|.
    """
    mat = _adjacency_matrix(n, weighted_edges)
    classes = _refinement_classes(n, mat)
    slots: list[list[int]] = []
    for cls in classes:
        slots.extend([cls] * len(cls))

    best: list[tuple[int, int]] | None = None
    hits = 0  # leaves that reached ``best``
    pos = [-1] * n  # vertex -> assigned position

    def twins(u: int, v: int) -> bool:
        # the matrix is symmetric with a zero diagonal, so u's row with its
        # entries at u and v swapped equals v's row exactly for twins
        row = mat[u][:]
        row[u], row[v] = row[v], row[u]
        return row == mat[v]

    def leaf() -> None:
        nonlocal best, hits
        out: list[tuple[int, int]] = []
        for (u, v), mult in weighted_edges:
            a, b = pos[u], pos[v]
            if a > b:
                a, b = b, a
            out.extend([(a, b)] * mult)
        out.sort()
        if best is None or out < best:
            best, hits = out, 0
        hits += out == best

    def extend(p: int) -> None:
        if p == n:
            leaf()
            return
        tried: list[int] = []
        for v in slots[p]:
            if pos[v] != -1:
                continue
            if any(twins(u, v) for u in tried):
                continue
            tried.append(v)
            pos[v] = p
            extend(p + 1)
            pos[v] = -1

    extend(0)
    assert best is not None
    # |T| = prod |twin class|!, as the m-th member of a twin class counts m
    twin_group = 1
    for cls in classes:
        for i, v in enumerate(cls):
            twin_group *= 1 + sum(twins(u, v) for u in cls[:i])
    return [[u, v] for u, v in best], hits * twin_group


def _weighted_edges(g: SimpleGraph | Multigraph, what: str) -> tuple:
    """``((u, v), multiplicity)`` pairs sorted by pair, after the size checks
    shared by the isomorphism routines (``what`` names the caller)."""
    if g.n < 1:
        raise ValueError(f"{what} requires at least one vertex")
    if g.n > VERTEX_CAP:
        raise CapExceededError(f"{what} capped at {VERTEX_CAP} vertices (got {g.n})")
    if isinstance(g, Multigraph):
        return g.edges
    return tuple(((u, v), 1) for u, v in g.sorted_edges())


@lru_cache(maxsize=1 << 14)
def _canonical_form_cached(n: int, weighted_edges: tuple) -> tuple[str, int]:
    """Form string and automorphism count, keyed by (n, sorted weighted edges).

    The key is labelled, so isomorphic inputs with different labels take
    separate entries.  A tree is looked up by its centre-rooted code in
    ``_tree_form``, so each distinct tree is searched once however it is
    labelled.  The bound of 16384 entries sits far above the few hundred
    that tree verification or a collision search to n = 5 holds."""
    if len(weighted_edges) == n - 1 and all(mult == 1 for _, mult in weighted_edges):
        code = _tree_code(n, [pair for pair, _ in weighted_edges])
        if code is not None:
            return _tree_form(code)
    return _search_form(n, weighted_edges)


def _search_form(n: int, weighted_edges) -> tuple[str, int]:
    body, aut = _canonical_edge_list(n, weighted_edges)
    return f"{n}:" + json.dumps(body, separators=(",", ":")), aut


@lru_cache(maxsize=1 << 14)
def _tree_form(code: str) -> tuple[str, int]:
    """Form string and automorphism count of the tree a centre-rooted code
    names, from one search on the code-decoded labelling.  Both are
    labelling-invariant, so they equal what any labelling of the tree gives.
    Bounded at 16384 entries, one per distinct tree."""
    adj = _code_adjacency(code)
    edges = tuple(((u, v), 1) for u, nbrs in enumerate(adj) for v in nbrs if u < v)
    return _search_form(len(adj), edges)


def canonical_form(g: SimpleGraph | Multigraph) -> str:
    """Deterministic isomorphism-class string ``"n:[[u,v],...]"``.

    The payload is the relabelled sorted edge list (repeated pairs encode
    multiplicity), so two graphs get the same string exactly when they are
    isomorphic.  Raises ``CapExceededError`` above ``VERTEX_CAP`` vertices.
    """
    return _canonical_form_cached(g.n, _weighted_edges(g, "canonical form"))[0]


def parse_form(form: str) -> tuple[int, list[tuple[int, int]]]:
    """Inverse of ``canonical_form``'s serialisation: (n, repeated edge pairs)."""
    head, _, body = form.partition(":")
    n = int(head)
    pairs = [tuple(e) for e in json.loads(body)]
    return n, pairs  # type: ignore[return-value]


def graph_from_form(form: str) -> SimpleGraph | Multigraph:
    """Materialise the canonical representative named by a form string."""
    n, pairs = parse_form(form)
    if any(len(p) == 1 for p in pairs):
        raise ValueError("form string does not describe a 2-uniform graph")
    counts = Counter(pairs)
    if all(m == 1 for m in counts.values()):
        return SimpleGraph.from_edges(n, pairs)
    return Multigraph.from_pairs(n, pairs)


def are_isomorphic(g: SimpleGraph | Multigraph, h: SimpleGraph | Multigraph) -> bool:
    """Isomorphism test by canonical-form comparison, with cheap pre-checks."""
    if g.n != h.n:
        return False
    if isinstance(g, SimpleGraph) and isinstance(h, SimpleGraph):
        if len(g.edges) != len(h.edges) or sorted(g.degrees()) != sorted(h.degrees()):
            return False
    return canonical_form(g) == canonical_form(h)


def automorphism_count(g: SimpleGraph | Multigraph) -> int:
    """Order of the automorphism group.

    Read off the canonical-form search, which counts the labellings that
    reach the least edge list (see ``_canonical_edge_list``); the result
    shares ``canonical_form``'s cache entry.
    """
    return _canonical_form_cached(g.n, _weighted_edges(g, "automorphism count"))[1]


def _tree_adjacency(n: int, edges) -> list[list[int]] | None:
    """Adjacency lists of the graph on 0..n-1, or None unless it is a tree
    (n >= 1, n - 1 edges, connected)."""
    if n < 1:
        return None
    adj: list[list[int]] = [[] for _ in range(n)]
    count = 0
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return None
        adj[u].append(v)
        adj[v].append(u)
        count += 1
    if count != n - 1:
        return None
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return adj if all(seen) else None


def _centre_code(adj: list[list[int]]) -> str:
    """AHU code (Aho, Hopcroft and Ullman) of a tree given by its adjacency
    lists, rooted at its centre.

    Leaves are peeled layer by layer until the one or two centre vertices
    remain; with two centres the lesser rooted code is taken.  A rooted
    code names the rooted tree exactly and isomorphisms map centres to
    centres, so two trees get the same code exactly when they are
    isomorphic."""
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

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return min(code(c, -1) for c in layer)


def _tree_code(n: int, edges) -> str | None:
    """The centre-rooted code of the graph with these edges on 0..n-1, or
    None unless it is a tree."""
    adj = _tree_adjacency(n, edges)
    return None if adj is None else _centre_code(adj)


def _code_adjacency(code: str) -> list[list[int]]:
    """Adjacency lists of the tree an AHU code names, its vertices
    numbered in preorder from the root 0."""
    adj: list[list[int]] = []
    stack: list[int] = []
    for ch in code:
        if ch == "(":
            v = len(adj)
            adj.append(stack[-1:])  # v's parent, unless v is the root
            if stack:
                adj[stack[-1]].append(v)
            stack.append(v)
        else:
            stack.pop()
    return adj


def relabel(g: SimpleGraph, perm: dict[int, int] | list[int]) -> SimpleGraph:
    """Apply a vertex bijection (``perm[v]`` = new label of ``v``)."""
    if isinstance(perm, list):
        perm = {v: perm[v] for v in range(g.n)}
    return SimpleGraph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))


def induced_subgraph(g: SimpleGraph, vertices: list[int]) -> SimpleGraph:
    """Induced subgraph relabelled onto 0..len(vertices)-1 in sorted order."""
    vs = sorted(vertices)
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return SimpleGraph.from_edges(len(vs), edges)


# ---------------------------------------------------------------------------
# block-multiset component classes
# ---------------------------------------------------------------------------


def singleton_class_string(block_count: int) -> str:
    """Class string of a connected 1-uniform component: one symbol, repeated."""
    return "1:" + json.dumps([[0]] * block_count, separators=(",", ":"))


def component_class_string(part: Lambda) -> str:
    """Canonical class string of one connected component of a block multiset.

    For k = 2 the component is read as a loopless multigraph on its symbols
    and canonicalised; for k = 1 connectivity forces a single symbol, so the
    class is determined by the block count alone.
    """
    if part.k == 1 and len({b[0] for b in part.blocks}) != 1:
        raise ValueError("1-uniform component must use a single symbol")
    return _blocks_class_string(part.blocks)


def _blocks_class_string(blocks) -> str:
    """``component_class_string`` of sorted blocks known to be connected,
    with no ``Lambda`` built; k = 2 keeps ``canonical_form``'s size checks."""
    if blocks and len(blocks[0]) == 1:
        return singleton_class_string(len(blocks))
    index = {s: i for i, s in enumerate(sorted({s for b in blocks for s in b}))}
    pairs = ((index[a], index[b]) for a, b in blocks)
    return canonical_form(Multigraph.from_pairs(len(index), pairs))


def lambda_class(lam: Lambda) -> tuple[str, ...]:
    """Isomorphism class of a block multiset: sorted component class strings."""
    return tuple(sorted(component_class_string(p) for p in connected_components(lam)))

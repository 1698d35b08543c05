"""Kneser chromatic functions of small graphs in the power-sum basis.

For k in {1, 2} and a graph G on n vertices, the invariant computed here is

    X_k(G) = sum over maps phi from V(G) into k-element subsets of {1,2,...}
             with phi(u), phi(v) disjoint for every edge uv
             of the monomial  prod_v x_{phi(v)} ,

a formal power series in variables indexed by k-subsets.  For k = 1 this is
the chromatic symmetric function; evaluating it with m symbols and all
variables 1 counts proper m-colourings.

Inclusion-exclusion over the edge set turns X_k into a signed sum over
spanning subgraphs: writing G_S for the subgraph with edge set S,

    X_k(G) = sum_{S subseteq E(G)} (-1)^{|S|} prod_{components C of G_S} N_C,

    N_C   = sum over functions psi from V(C) into k-subsets with
            *intersecting* images on the edges of C of prod x_{psi(v)} .

Grouping the functions psi by the isomorphism class of their value multiset
lambda (a multiset of |V(C)| blocks) gives

    N_C = sum over admissible classes lambda of  W(C, lambda) * P_lambda ,

where a class is *admissible* when some bijection of V(C) onto a
representative multiset puts intersecting blocks on adjacent vertices,
W(C, lambda) counts the functions realising one fixed representative (the
witness count), and P_lambda is the orbit sum of the representative's
monomial.  For a multiset whose symbol graph splits into several connected
parts, P_lambda is the *product* of the parts' orbit sums -- that product
convention is exactly what absorbs symbol collisions between different
components of G_S, and with it the witness-counted expansion reproduces
X_k identically (the package's strongest self-check evaluates both sides
modulo a large prime).

``kneser_psum`` accumulates this expansion as integer coefficients per
class.  Two normalisations are exposed:

* ``coeffs="witness"`` (default): each admissible class contributes its
  witness count W.  This is the genuine power-sum expansion of X_k; it is
  what evaluation, fingerprinting and collision search use.
* ``coeffs="indicator"``: each admissible class contributes 1 per subgraph
  S, i.e. the signed count of subgraphs admitting the class.  Tree classes
  then carry the bare sign (-1)^(n-1), which is the cleanest form of the
  support structure that reconstruction relies on.

Both normalisations have the same support on tree classes (a tree class
arises from the single spanning subgraph S = E, so no cancellation is
possible there), and for k = 1 they coincide outright because each
component admits exactly one class with exactly one realising function.
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial

from .graphs import (
    CapExceededError,
    Lambda,
    Multigraph,
    SimpleGraph,
    _blocks_class_string,
    _tree_form,
    automorphism_count,
    canonical_form,
    graph_components,
    graph_from_form,
    induced_subgraph,
    is_connected,
    parse_form,
    singleton_class_string,
)
from .profiles import _minimum_rootings
from .trees import _lambda_t_codes, _minimal_tree_classes, _series_tree_codes

#: full subset expansions are enumerated only up to this many vertices
PSUM_VERTEX_CAP = 7
#: k = 2 expansions visit every spanning subgraph: K6's 2^15 run, K7's 2^21 do not
PSUM_SUBSET_CAP = 1 << 15
#: fixed public 61-bit prime for all modular evaluation (2^61 - 1)
FIXED_PRIME = (1 << 61) - 1

PClass = tuple[str, ...]


# ---------------------------------------------------------------------------
# admissibility of a given block multiset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibleWitness:
    """A bijection from vertices to blocks with intersecting blocks on edges."""

    assignment: tuple[tuple[int, tuple[int, ...]], ...]

    def mapping(self) -> dict[int, tuple[int, ...]]:
        return dict(self.assignment)

    def realises(self, lam: Lambda, g: SimpleGraph) -> bool:
        """True when this is a bijection of V(G) onto the blocks of ``lam``
        (as a multiset) with intersecting blocks on every edge of ``g``."""
        phi = self.mapping()
        return (
            len(self.assignment) == g.n
            and set(phi) == set(range(g.n))
            and Counter(phi.values()) == Counter(lam.blocks)
            and all(set(phi[u]) & set(phi[v]) for u, v in g.edges)
        )


def _search_order(g: SimpleGraph) -> tuple[list[int], list[list[int]]]:
    """Vertices component by component in BFS order, plus for each position
    the positions of its already-placed neighbours.

    Every vertex after the first of its component has at least one earlier
    neighbour, so adjacency constraints can be checked incrementally."""
    adj = g.adjacency()
    deg = g.degrees()
    seen = [False] * g.n
    order: list[int] = []
    for comp in graph_components(g):
        start = max(comp, key=lambda v: (deg[v], -v))
        queue = [start]
        seen[start] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    pos = {v: i for i, v in enumerate(order)}
    earlier: list[list[int]] = [[] for _ in order]
    for i, v in enumerate(order):
        for w in adj[v]:
            if pos[w] < i:
                earlier[i].append(pos[w])
    return order, earlier


def _placement(g: SimpleGraph, blocks):
    """The first bijection of V(G) onto the multiset ``blocks`` that puts
    intersecting blocks on adjacent vertices, as sorted (vertex, block)
    pairs, or None when there is none.

    Blocks are searched by twin group: two blocks are twins when they meet
    exactly the same blocks (equal rows of the intersection matrix; every
    block meets itself, so twins meet each other too).  Swapping two twins
    in an admissible placement gives another one, so each group is tried
    once, as one value whose capacity is its summed multiplicity, and the
    existence of a placement is decided exactly as by a search over the
    blocks themselves.  Vertices are placed in ``_search_order`` and groups
    tried in the order of their least block; a complete placement hands
    each group's blocks out in sorted order along the search order.  The
    search is pruned by a necessary condition: a vertex of degree d needs a
    block whose intersecting blocks can host d neighbours.
    """
    counts = Counter(blocks)
    distinct = sorted(counts)
    sets = [set(b) for b in distinct]
    rows = [tuple(bool(sa & sb) for sb in sets) for sa in sets]
    twins: dict[tuple[bool, ...], list] = {}
    for b, row in zip(distinct, rows):
        twins.setdefault(row, []).extend([b] * counts[b])
    groups = list(twins.values())
    inter = [[bool(set(ga[0]) & set(gb[0])) for gb in groups] for ga in groups]
    caps = [len(members) for members in groups]
    avail = [sum(c for c, meets in zip(caps, row) if meets) - 1 for row in inter]
    order, earlier = _search_order(g)
    deg = g.degrees()
    chosen: list[int] = []

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        need = deg[order[i]]
        for gi in range(len(groups)):
            if caps[gi] == 0 or avail[gi] < need:
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


def is_admissible(lam: Lambda, g: SimpleGraph) -> AdmissibleWitness | None:
    """Decide whether the class of ``lam`` is admissible by ``g``.

    Searches for a bijection of V(G) onto the blocks of ``lam`` (as a
    multiset) such that adjacent vertices receive intersecting blocks;
    returns one witness, or None.  Requires exactly n blocks.  Blocks that
    meet the same blocks are interchangeable and searched once
    (``_placement``): the first witness may differ from a search over the
    blocks one by one, the decision does not.
    """
    if len(lam.blocks) != g.n:
        raise ValueError(
            f"block count {len(lam.blocks)} must equal vertex count {g.n}"
        )
    assignment = _placement(g, lam.blocks)
    return None if assignment is None else AdmissibleWitness(assignment)


# ---------------------------------------------------------------------------
# admissible classes of one connected component shape
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 14)
def _multiset_class(blocks: tuple[tuple[int, int], ...]) -> str:
    """Cached ``_blocks_class_string``: shapes share most of their multisets."""
    return _blocks_class_string(blocks)


@lru_cache(maxsize=1 << 12)
def _component_weights(form: str, k: int) -> dict[str, int]:
    """Witness counts W of the admissible classes of the connected shape
    ``form``, keyed by canonical component string in sorted order.

    W counts the functions from the vertices onto one fixed representative
    multiset R (block capacities consumed exactly) with intersecting blocks
    on edges.  For k = 1 connectivity forces one repeated symbol: W = 1.

    For k = 2 blocks are assigned in ``_search_order`` with symbols named by
    first use: the first vertex takes {0, 1}, and each later vertex meets an
    earlier neighbour's block, so it brings at most one fresh symbol.  Let N
    count the assignments in the class of R, on w symbols.  Its w! / aut(R)
    relabellings are realised by W functions each.  For w >= 3 a relabelling
    that fixes a function fixes two blocks sharing one symbol, hence their
    three symbols, and so every symbol, as the symbol graph is connected.
    The W / aut(R) relabelling orbits thus have w! members each, exactly two
    of them named by first use, one per order of the first block's symbols:
    W = N aut(R) / 2, and a remainder raises ``RuntimeError``.  For w = 2
    (n copies of {0, 1}) N = 1 and aut = 2 give W = 1 as well.
    """
    n, pairs = parse_form(form)
    if k == 1:
        return {singleton_class_string(n): 1}
    _, earlier = _search_order(SimpleGraph.from_edges(n, pairs))
    found: Counter = Counter()
    assign: list[tuple[int, int]] = []

    def extend(i: int, used: int) -> None:
        if i == n:
            found[_multiset_class(tuple(sorted(assign)))] += 1
            return
        if earlier[i]:
            first, *rest = (assign[j] for j in earlier[i])
            cands = {(min(s, o), max(s, o)) for s in first for o in range(used + 1) if o != s}
        else:
            rest, cands = [], {(0, 1)}
        for b in cands:
            if all(b[0] in r or b[1] in r for r in rest):
                assign.append(b)
                extend(i + 1, max(used, b[1] + 1))
                assign.pop()

    extend(0, 0)
    weights: dict[str, int] = {}
    for cls in sorted(found):
        weights[cls], odd = divmod(found[cls] * _component_blocks(cls)[2], 2)
        if odd:
            raise RuntimeError("class count times automorphism count is odd")
    return weights


# ---------------------------------------------------------------------------
# the power-sum series
# ---------------------------------------------------------------------------


def _check_k(k: int) -> None:
    if k not in (1, 2):
        raise ValueError("only k = 1 and k = 2 are supported")


def _check_coeffs(coeffs: str) -> None:
    if coeffs not in ("witness", "indicator"):
        raise ValueError(f"unknown coefficient normalisation {coeffs!r}")


def _check_series_args(n: int, edge_count: int, k: int, coeffs: str, what: str) -> None:
    """Check k and ``coeffs``, then refuse a series of a graph on n vertices
    with ``edge_count`` edges: n < 1, n above ``PSUM_VERTEX_CAP``, or for
    k = 2 more than ``PSUM_SUBSET_CAP`` spanning subgraphs.  The vertex cap
    comes first, so a huge n never forms ``1 << edge_count``."""
    _check_k(k)
    _check_coeffs(coeffs)
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > PSUM_VERTEX_CAP:
        raise CapExceededError(f"{what} capped at {PSUM_VERTEX_CAP} vertices (got {n})")
    if k == 2 and 1 << edge_count > PSUM_SUBSET_CAP:
        raise CapExceededError(f"{what} capped at {PSUM_SUBSET_CAP} spanning subgraphs")


@lru_cache(maxsize=1 << 12)
def _is_component_string(comp: str, k: int) -> bool:
    """Whether ``comp`` is ``w:`` with w >= 1, then a non-empty JSON list of
    at most ``PSUM_VERTEX_CAP`` blocks, each a list of k distinct ints, that
    use exactly the symbols 0..w-1, whose symbol graph is connected and
    which spells its own canonical class string.

    A series is computed only within ``PSUM_VERTEX_CAP`` vertices, one block
    per vertex, so no component has more blocks, nor (being connected) more
    than ``PSUM_VERTEX_CAP + 1`` symbols.  The block count and the symbol
    set are checked before any graph is built, so a short string claiming a
    huge width, or a long cycle, is refused without allocating that width
    or running a long canonical search.  Cached (4096 entries), so reading
    a series cache checks each distinct string once."""
    try:
        w, blocks = parse_form(comp)
    except (TypeError, ValueError):
        return False
    well_formed = (
        comp.partition(":")[0].isdigit()
        and 0 < len(blocks) <= PSUM_VERTEX_CAP
        and all(all(type(x) is int for x in b) and len(b) == len(set(b)) == k for b in blocks)
    )
    if not well_formed:
        return False
    symbols = {x for b in blocks for x in b}
    if len(symbols) != w or symbols != set(range(w)):
        return False
    if k == 2 and not is_connected(Multigraph.from_pairs(w, blocks).simple()):
        return False
    return _blocks_class_string(sorted(tuple(sorted(b)) for b in blocks)) == comp


@dataclass
class PSeries:
    """A finite integer combination of block-multiset classes.

    ``terms`` maps each class (sorted tuple of connected component strings)
    to its coefficient; ``coeffs`` records the normalisation ("witness" or
    "indicator").
    """

    n: int
    k: int
    coeffs: str
    terms: dict[PClass, int]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "coeffs": self.coeffs,
            "terms": [
                {"class": list(cls), "coeff": coeff}
                for cls, coeff in sorted(self.terms.items())
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)

    @staticmethod
    def from_json_dict(data: dict) -> "PSeries":
        try:
            n, k = data["n"], data["k"]
            coeffs = data.get("coeffs", "witness")
            entries = [(tuple(e["class"]), e["coeff"]) for e in data["terms"]]
            # int() would truncate 1.9 or true; bool is a subclass of int
            if any(type(x) is not int for x in (n, k, *(c for _, c in entries))):
                raise TypeError("n, k and every coeff must be integers")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed series payload: {exc}") from exc
        _check_k(k)
        _check_coeffs(coeffs)
        terms: dict[PClass, int] = {}
        for cls, coeff in entries:
            valid = all(isinstance(c, str) and _is_component_string(c, k) for c in cls)
            # a class on n vertices has n blocks, and a valid component
            # string opens one bracket per block and one for its block list
            valid = valid and sum(c.count("[") - 1 for c in cls) == n
            if not (valid and cls == tuple(sorted(cls))):
                raise ValueError(
                    f"malformed series payload: bad, non-canonical or unsorted class {cls!r}"
                )
            if coeff:
                terms[cls] = terms.get(cls, 0) + coeff
        return PSeries(n, k, coeffs, terms)

    @staticmethod
    def from_json(text: str) -> "PSeries":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"series payload is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError("series payload must be a JSON object")
        return PSeries.from_json_dict(data)


def _spanning_classes(sub: SimpleGraph, k: int) -> dict[PClass, int]:
    """Classes admissible by ``sub``, assembled from one class per component.

    Each class carries the product of its components' witness counts, summed
    over the assembly choices.
    """
    partial: dict[PClass, int] = {(): 1}
    for comp in graph_components(sub):
        table = _component_weights(canonical_form(induced_subgraph(sub, comp)), k)
        nxt: dict[PClass, int] = defaultdict(int)
        for cls, w in partial.items():
            for comp_cls, wc in table.items():
                nxt[tuple(sorted(cls + (comp_cls,)))] += w * wc
        partial = dict(nxt)
    return partial


def _psum_subsets(g: SimpleGraph, k: int, witness: bool) -> dict[PClass, int]:
    """Signed class accumulation over all spanning subgraphs.

    With ``witness`` each component class enters with its witness count and
    assembly choices multiply; otherwise each assembled class counts once
    per subgraph (set semantics).
    """
    edges = g.sorted_edges()
    terms: dict[PClass, int] = defaultdict(int)
    for mask in range(1 << len(edges)):
        subset = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        sign = -1 if len(subset) & 1 else 1
        for cls, w in _spanning_classes(SimpleGraph(g.n, frozenset(subset)), k).items():
            terms[cls] += sign * w if witness else sign
    return {c: v for c, v in terms.items() if v}


# --- fast k = 1 route: recursions over vertex subsets ----------------------


def _connected_signed_counts(g: SimpleGraph) -> list[int]:
    """c(X) = sum of (-1)^|S| over the edge sets S of G[X] that connect X, for
    every vertex bitmask X; that is (-1)^(|X|-1) T_{G[X]}(1, 0), and 0 exactly
    when G[X] is disconnected.  Splitting sum_{S subseteq E(G[X])} (-1)^|S| =
    [G[X] edgeless] by the component A of min X gives the recursion
    c(X) = [G[X] edgeless] - sum c(A) over A ni min X, A != X, G[X - A] edgeless."""
    nbrs = [sum(1 << w for w in adj) for adj in g.adjacency()]
    edgeless, counts = [True], [0]
    for x in range(1, 1 << g.n):
        rest = x & (x - 1)  # X without its least vertex; B = X - A ranges over its subsets
        edgeless.append(edgeless[rest] and not nbrs[(x ^ rest).bit_length() - 1] & x)
        others = (counts[x ^ b] for b in range(1, rest + 1) if b | rest == rest and edgeless[b])
        counts.append(edgeless[x] - sum(others))
    return counts


def _psum_k1(g: SimpleGraph) -> dict[PClass, int]:
    """k = 1 series: a partition of V into blocks B (the components of a
    spanning subgraph) adds prod_B c(B) to the class of its block sizes, with
    c from ``_connected_signed_counts``.  Fixing the block A of min X,
    terms(X) = sum c(A) * singleton(|A|) (x) terms(X - A) over A ni min X
    with c(A) != 0, and terms({}) = {(): 1}."""
    counts = _connected_signed_counts(g)
    memo: dict[int, dict[tuple[int, ...], int]] = {0: {(): 1}}

    def terms(x: int) -> dict[tuple[int, ...], int]:
        if x not in memo:
            memo[x] = defaultdict(int)
            rest = x & (x - 1)
            for b in range(rest + 1):
                if b | rest == rest and (c := counts[x ^ b]):
                    for sizes, v in terms(b).items():
                        memo[x][tuple(sorted(sizes + ((x ^ b).bit_count(),)))] += c * v
        return memo[x]

    full = terms((1 << g.n) - 1)
    return {tuple(sorted(map(singleton_class_string, s))): v for s, v in full.items()}


@lru_cache(maxsize=1 << 10)
def _psum_terms(form: str, k: int, coeffs: str) -> tuple[tuple[PClass, int], ...]:
    """The series terms of the graph named by ``form``, as (class, coeff)
    items, so that every caller builds its own dict from them."""
    g = graph_from_form(form)
    assert isinstance(g, SimpleGraph)
    terms = _psum_k1(g) if k == 1 else _psum_subsets(g, k, coeffs == "witness")
    return tuple(terms.items())


def kneser_psum(g: SimpleGraph, k: int, *, coeffs: str = "witness") -> PSeries:
    """The invariant X_k(G) in the power-sum basis (see module docstring).

    ``coeffs="witness"`` gives the genuine expansion (what the evaluation
    oracle reproduces); ``coeffs="indicator"`` counts each admissible class
    once per spanning subgraph.  Capped at ``PSUM_VERTEX_CAP`` vertices and,
    for k = 2, at ``PSUM_SUBSET_CAP`` spanning subgraphs.
    """
    _check_series_args(g.n, len(g.edges), k, coeffs, "power-sum expansion")
    return PSeries(g.n, k, coeffs, dict(_psum_terms(canonical_form(g), k, coeffs)))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def block_universe(m: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..m}, as sorted tuples."""
    return [tuple(c) for c in combinations(range(1, m + 1), k)]


def random_values(k: int, m: int, seed: int) -> dict[tuple[int, ...], int]:
    """Deterministic pseudorandom value map on the k-subsets of {1..m}.

    Each call returns a fresh dict over values drawn once per (k, m, seed)."""
    return dict(zip(block_universe(m, k), _random_value_tuple(k, m, seed)))


@lru_cache(maxsize=256)
def _random_value_tuple(k: int, m: int, seed: int) -> tuple[int, ...]:
    """The values of ``random_values``, in ``block_universe(m, k)`` order."""
    rng = random.Random(f"{seed}:{k}:{m}")
    return tuple(rng.randrange(1, FIXED_PRIME) for _ in block_universe(m, k))


def direct_eval(
    g: SimpleGraph, k: int, m: int, values: dict[tuple[int, ...], int]
) -> int:
    """Evaluate X_k(G) directly from its definition, modulo ``FIXED_PRIME``.

    Sums prod_v values[phi(v)] over all maps phi into k-subsets of {1..m}
    with disjoint images on edges.  Independent of the power-sum machinery;
    used as the ground-truth oracle.
    """
    _check_k(k)
    if m < k:
        raise ValueError("need m >= k")
    blocks = block_universe(m, k)
    missing = [b for b in blocks if b not in values]
    if missing:
        raise ValueError(f"value map is missing blocks, e.g. {missing[0]}")
    sets = [set(b) for b in blocks]
    disjoint = [[not (sa & sb) for sb in sets] for sa in sets]
    vals = [values[b] % FIXED_PRIME for b in blocks]

    total = 1
    for comp in graph_components(g):
        sub = induced_subgraph(g, comp)
        order, earlier = _search_order(sub)
        comp_total = 0
        chosen: list[int] = []

        def extend(i: int, running: int) -> None:
            nonlocal comp_total
            if i == len(order):
                comp_total = (comp_total + running) % FIXED_PRIME
                return
            for bi in range(len(blocks)):
                if all(disjoint[bi][chosen[j]] for j in earlier[i]):
                    chosen.append(bi)
                    extend(i + 1, running * vals[bi] % FIXED_PRIME)
                    chosen.pop()

        extend(0, 1)
        total = total * comp_total % FIXED_PRIME
    return total


@lru_cache(maxsize=1 << 12)
def _component_blocks(form: str) -> tuple[int, tuple[tuple[int, ...], ...], int]:
    """(symbol count, blocks, automorphism count) for a component string."""
    w, pairs = parse_form(form)
    blocks = tuple(tuple(b) for b in pairs)
    if len(blocks[0]) == 1:
        aut = 1
    else:
        aut = automorphism_count(Multigraph.from_pairs(w, blocks))
    return w, blocks, aut


@lru_cache(maxsize=1 << 12)
def _orbit_sum(form: str, m: int, vals: tuple[int, ...]) -> int:
    """Orbit sum of one connected component class, modulo ``FIXED_PRIME``.

    ``vals`` holds the value of each block of ``block_universe(m, k)``, in
    that order.  Sums the block-monomial over injective symbol labellings
    into {1..m}, extending a labelling one symbol at a time with a running
    product: a block is multiplied in when its last symbol is placed, so a
    shared prefix is paid once.  The sum is an exact integer and is divided
    by the automorphism count of the labelled component; the division is
    exact (the automorphism group acts freely on injective labellings),
    which doubles as a check on the count.

    Results are cached by (form, m, vals) in a bounded ``lru_cache`` of
    4096 entries, so a component evaluated at the same value map is summed
    once across series, fingerprints and collision searches.
    """
    w, blocks, aut = _component_blocks(form)
    if w > m:
        return 0
    # matrix[a][b] is the value of the block {a, b}; a k = 1 block {a} is matrix[a][a]
    matrix = [[0] * (m + 1) for _ in range(m + 1)]
    for b, v in zip(block_universe(m, len(blocks[0])), vals):
        matrix[b[0]][b[-1]] = matrix[b[-1]][b[0]] = v
    # blocks by their last symbol, each named by its first (itself when k = 1)
    partners: list[list[int]] = [[] for _ in range(w)]
    for b in blocks:
        partners[max(b)].append(min(b))
    label = [0] * w
    used = [False] * (m + 1)

    def extend(s: int, running: int) -> int:
        if s == w:
            return running
        total = 0
        for x in range(1, m + 1):
            if used[x]:
                continue
            label[s] = x
            row = matrix[x]
            p = running
            for t in partners[s]:
                p *= row[label[t]]
            used[x] = True
            total += extend(s + 1, p)
            used[x] = False
        return total

    total = extend(0, 1)
    if total % aut:
        raise RuntimeError("orbit sum not divisible by automorphism count")
    return (total // aut) % FIXED_PRIME


def pseries_eval(series: PSeries, m: int, values: dict[tuple[int, ...], int]) -> int:
    """Evaluate a power-sum series at a finite value map, modulo ``FIXED_PRIME``.

    Each class evaluates to the product of its components' orbit sums; the
    series evaluates to the coefficient-weighted sum.  For a witness series
    this equals ``direct_eval`` identically.  ``values`` needs a value for
    every k-subset of {1..m}; it is read once into a tuple in
    ``block_universe(m, k)`` order, which keys the orbit-sum cache of
    ``_orbit_sum`` together with the component and m.
    """
    if m < series.k:
        raise ValueError("need m >= k")
    blocks = block_universe(m, series.k)
    missing = [b for b in blocks if b not in values]
    if missing:
        raise ValueError(f"value map is missing blocks, e.g. {missing[0]}")
    vals = tuple(values[b] for b in blocks)
    total = 0
    for cls, coeff in sorted(series.terms.items()):
        prod = 1
        for comp in cls:
            prod = prod * _orbit_sum(comp, m, vals) % FIXED_PRIME
            if prod == 0:
                break
        total = (total + coeff * prod) % FIXED_PRIME
    return total % FIXED_PRIME


# ---------------------------------------------------------------------------
# the monomial (disjoint-support) basis
# ---------------------------------------------------------------------------
#
# The series stores coefficients over *tuples of connected classes*, and
# evaluation multiplies the components' orbit sums.  Those products are not
# linearly independent: sharing symbols between two components produces a
# merged class, e.g. for single blocks  O_b * O_b = O_bb + 2 O_(b)(b),  so
# the same function can have several representations.  (For k = 1 this is
# the familiar p_1^2 = m_2 + 2 m_11; the power sums themselves stay
# algebraically independent, so k = 1 representations are unique -- but for
# k = 2 they are not.)  Exact equality of invariants must therefore be
# decided in the basis of *disjoint-support* multiset classes, whose orbit
# sums have pairwise disjoint monomial supports.


def _class_aut(pclass: PClass) -> int:
    """Symbol permutations fixing a class representative: each component's
    automorphism count, and every reordering of equal components."""
    aut = 1
    for comp, mult in Counter(pclass).items():
        aut *= _component_blocks(comp)[2] ** mult * factorial(mult)
    return aut


def _merge_images(w_t: int, w_c: int):
    """Each injective image of the symbols 0..w_c-1 whose fresh symbols
    (those >= w_t) are w_t, w_t + 1, ... in order, as a tuple: each symbol
    in turn takes an unused old symbol or the next fresh one."""

    def extend(image: tuple[int, ...]):
        if len(image) == w_c:
            yield image
            return
        fresh = w_t + sum(s >= w_t for s in image)
        for s in [*(x for x in range(w_t) if x not in image), fresh]:
            yield from extend(image + (s,))

    return extend(())


@lru_cache(maxsize=1 << 12)
def _merge_expansion(t_class: PClass, comp: str) -> tuple[tuple[PClass, int], ...]:
    """Expansion of  O_{t_class} * O_{comp}  in disjoint-support classes.

    Write T for ``t_class`` (w_T symbols, its components on consecutive
    intervals) and C for ``comp``.  ``_merge_images`` overlays a labelled
    representative of C on T in every injective way that takes fresh
    symbols in increasing order (the fresh symbols are interchangeable).
    C is connected, so an image merges it with exactly the T components it
    touches and leaves the rest alone: each distinct image of C's blocks
    canonicalises only that merged part, and its class is the untouched
    strings plus the merged form, sorted.  R_D counts the images in class D:

        beta_D = aut(D) * R_D / (aut(T) * aut(C))    (aut: ``_class_aut``).

    On N symbols, count the pairs (t, c) of orbit members with t + c in the
    orbit of D two ways: |orbit(D)| * beta_D, or |orbit(T)| times the images
    of C completing one t to D.  An image with f fresh symbols stands
    for (N - w_T)! / (N - w_T - f)! injective images, aut(C) injective
    images give one labelled image, and |orbit(X)| = N! / ((N - w_X)! aut(X)),
    so every N-dependent factor cancels.  A division that is not exact
    raises ``RuntimeError``.  Expansions are cached per (t_class, comp) pair
    in a bounded ``lru_cache`` of 4096 entries.
    """
    owner: list[int] = []  # T's symbol -> index of its component
    t_blocks: list[list[tuple[int, ...]]] = []  # each component on its interval
    for i, part in enumerate(t_class):
        w, pairs = parse_form(part)
        t_blocks.append([tuple(s + len(owner) for s in b) for b in pairs])
        owner += [i] * w
    w_c, c_pairs = parse_form(comp)
    overlays = Counter(
        tuple(sorted(tuple(sorted(image[s] for s in b)) for b in c_pairs))
        for image in _merge_images(len(owner), w_c)
    )
    images: Counter = Counter()
    for c_blocks, count in overlays.items():
        touched = {owner[s] for b in c_blocks for s in b if s < len(owner)}
        merged = _blocks_class_string([b for i in touched for b in t_blocks[i]] + list(c_blocks))
        untouched = [part for i, part in enumerate(t_class) if i not in touched]
        images[tuple(sorted(untouched + [merged]))] += count
    denom = _class_aut(t_class) * _class_aut((comp,))
    out = []
    for cand, count in sorted(images.items()):
        beta, rest = divmod(_class_aut(cand) * count, denom)
        if rest:
            raise RuntimeError("merge coefficient not divisible by automorphism counts")
        out.append((cand, beta))
    return tuple(out)


def true_basis(series: PSeries) -> dict[PClass, int]:
    """Coefficients of the series in the disjoint-support class basis.

    Linear in the series; each stored term (a product of connected classes)
    is expanded component by component via ``_merge_expansion``.  Vectors in
    this basis are canonical: two series are equal as functions of the block
    variables exactly when their vectors agree, so this is the right object
    for exact collision decisions.  (For a witness series of a graph, the
    coefficient of a class D here equals the number of proper block
    assignments realising one labelled representative of D.)
    """
    out: dict[PClass, int] = defaultdict(int)
    for term, coeff in series.terms.items():
        vec: dict[PClass, int] = {(): 1}
        for comp in term:
            nxt: dict[PClass, int] = defaultdict(int)
            for t_cls, c0 in vec.items():
                for merged, beta in _merge_expansion(t_cls, comp):
                    nxt[merged] += c0 * beta
            vec = dict(nxt)
        for cls, v in vec.items():
            out[cls] += coeff * v
    return {c: v for c, v in out.items() if v}


# ---------------------------------------------------------------------------
# tree classes
# ---------------------------------------------------------------------------


def lambda_t(g: SimpleGraph, k: int = 2) -> frozenset[PClass]:
    """Tree classes of the support: classes whose symbol graph is a tree
    on n+1 symbols.

    For k = 1 no class can span n+1 symbols, so the set is empty.  For a
    tree G the classes are read off G directly by ``trees._lambda_t_codes``;
    for other graphs the full series is computed and filtered.  Either route
    names the classes by their codes, and each distinct class tree is
    canonicalised once, through the code-keyed ``graphs._tree_form``.
    """
    _check_k(k)
    if k == 1:
        return frozenset()
    codes = _lambda_t_codes(g)
    if codes is None:
        codes = _series_tree_codes(kneser_psum(g, 2))
    return frozenset((_tree_form(code)[0],) for code in codes)


def lambda_t_tilde(g: SimpleGraph) -> tuple[frozenset[PClass], tuple[int, ...]]:
    """The tree classes of minimal profile, and that minimal profile.

    Each tree class is profiled by the minimum rooted degree sequence of its
    symbol tree; the classes attaining the lexicographic minimum are the
    ones reconstruction deletes a leaf from.  The classes are profiled by
    their codes, and only the minimal ones are canonicalised.
    """
    codes = _lambda_t_codes(g)
    if codes is None:
        codes = _series_tree_codes(kneser_psum(g, 2))
    if not codes:
        raise ValueError("graph has no tree classes in its support")
    return _minimal_tree_classes(codes)


@dataclass(frozen=True)
class TreeAugmentation:
    """Output of ``augment_tree_lambda``: the block multiset, the per-vertex
    assignment realising it, and the rooted order it was read from."""

    lam: Lambda
    assignment: tuple[tuple[int, tuple[int, int]], ...]

    def mapping(self) -> dict[int, tuple[int, int]]:
        return dict(self.assignment)


def augment_tree_lambda(g: SimpleGraph) -> TreeAugmentation:
    """The canonical minimal-profile block multiset of a tree.

    Take a minimum rooted vertex sequence a_1, ..., a_n of T (rooted at the
    label-smallest minimum leaf) and give a_i the block {p_i, i}, where p_i
    is the position of its parent (0 for the root).  The symbol graph is T
    with one pendant symbol attached at the root, so its minimum profile is
    (1, 1 + r(T)_1, r(T)_2, ..., r(T)_n).
    """
    ro = _minimum_rootings(g)[0]
    assignment = []
    for i, v in enumerate(ro.order):
        pos = i + 1
        parent = ro.parent_pos[i] + 1  # root: -1 + 1 = 0
        assignment.append((v, (parent, pos)))
    lam = Lambda.from_blocks(2, (b for _, b in assignment))
    return TreeAugmentation(lam, tuple(sorted(assignment)))

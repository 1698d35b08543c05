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
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, permutations
from math import factorial, perm
from operator import mul

from .graphs import (
    CapExceededError,
    Lambda,
    Multigraph,
    SimpleGraph,
    _bfs,
    _blocks_class_string,
    _check_k,
    _check_simple,
    _components,
    _tree_form,
    automorphism_count,
    canonical_form,
    graph_components,
    induced_subgraph,
    is_connected,
    parse_form,
    singleton_class_string,
)
from .profiles import _least_leaves, _tree_lists
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


def _search_order(adj: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Vertices of a graph given by adjacency lists, component by component
    in BFS order, each from its vertex of largest degree (least label on
    ties), plus for each position the positions of its placed neighbours.

    Every vertex after the first of its component has at least one earlier
    neighbour, so adjacency constraints can be checked incrementally, and
    components start exactly at the positions with none."""
    seen = [False] * len(adj)
    order: list[int] = []
    for comp in _components(adj):
        order += _bfs(adj, max(comp, key=lambda v: (len(adj[v]), -v)), seen)
    pos = {v: i for i, v in enumerate(order)}
    return order, [[pos[w] for w in adj[v] if pos[w] < i] for i, v in enumerate(order)]


def _rows(blocks) -> list[int]:
    """For each block, the bitmask of the blocks it meets (bit j for
    ``blocks[j]``): the union over its symbols of the blocks holding it."""
    holders: dict[int, int] = {}
    for j, b in enumerate(blocks):
        for s in b:
            holders[s] = holders.get(s, 0) | 1 << j
    rows = []
    for b in blocks:
        row = 0
        for s in b:
            row |= holders[s]
        rows.append(row)
    return rows


def _placement(g: SimpleGraph, blocks):
    """The first bijection of V(G) onto the multiset ``blocks`` that puts
    intersecting blocks on adjacent vertices, as sorted (vertex, block)
    pairs, or None when there is none.

    Blocks are searched by twin group: two blocks are twins when they meet
    exactly the same blocks (every block meets itself, so twins meet each
    other too).  Swapping two twins in an admissible placement gives
    another one, so each group is tried once, as one value whose capacity
    is its summed multiplicity, and the existence of a placement is decided
    exactly as by a search over the blocks themselves.

    Relations are bitmasks.  A block's row (the distinct blocks it meets)
    is the union of the masks of the blocks holding each of its symbols;
    equal rows are twins.  Groups are numbered by their least block, and
    ``meets[g]`` is the mask of groups that meet group g.  Vertices are
    placed in ``_search_order``; a position's candidates are the groups
    with capacity left that meet the groups of all its placed neighbours,
    the AND of their ``meets`` masks, tried in increasing group number.
    The search is pruned by a necessary condition: a vertex of degree d
    needs a group whose meeting groups hold at least d other blocks.  A
    complete placement hands each group's blocks out in sorted order along
    the search order.
    """
    counts = Counter(blocks)
    distinct = sorted(counts)
    twins: dict[int, list] = {}
    for b, row in zip(distinct, _rows(distinct)):
        twins.setdefault(row, []).extend([b] * counts[b])
    groups = list(twins.values())
    meets = _rows([members[0] for members in groups])
    caps = [len(members) for members in groups]
    avail = [sum(c for gj, c in enumerate(caps) if row >> gj & 1) - 1 for row in meets]
    adj = g.adjacency()
    order, earlier = _search_order(adj)
    degrees = set(map(len, adj))
    fits = {d: sum(1 << gi for gi, a in enumerate(avail) if a >= d) for d in degrees}
    fit = [fits[len(adj[v])] for v in order]
    free = (1 << len(groups)) - 1  # groups with capacity left
    chosen: list[int] = []

    def extend(i: int) -> bool:
        nonlocal free
        if i == len(order):
            return True
        cand = fit[i] & free
        for j in earlier[i]:
            cand &= meets[chosen[j]]
        while cand:
            low = cand & -cand
            cand ^= low
            gi = low.bit_length() - 1
            caps[gi] -= 1
            if not caps[gi]:
                free ^= low
            chosen.append(gi)
            if extend(i + 1):
                return True
            chosen.pop()
            if not caps[gi]:
                free |= low
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
    meet the same blocks are interchangeable and searched once, over
    bitmasks (``_placement``).  The witness is the first placement in a
    fixed order (vertices in ``_search_order``, twin groups by least
    block), so it depends only on ``g`` and the multiset; it may differ
    from the first of a search over the blocks one by one, the decision
    does not.
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
    _, earlier = _search_order(SimpleGraph.from_edges(n, pairs).adjacency())
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
            if n < 1:
                raise ValueError(f"a series needs at least one vertex (got n = {n})")
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
            terms[cls] = terms.get(cls, 0) + coeff
        # a class listed more than once may cancel; no series stores a zero
        return PSeries(n, k, coeffs, {cls: coeff for cls, coeff in terms.items() if coeff})

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
    return {tuple(sorted(map(singleton_class_string, s))): v for s, v in full.items() if v}


def kneser_psum(g: SimpleGraph | Multigraph, k: int, *, coeffs: str = "witness") -> PSeries:
    """The invariant X_k(G) in the power-sum basis (see module docstring).

    ``coeffs="witness"`` gives the genuine expansion (what the evaluation
    oracle reproduces); ``coeffs="indicator"`` counts each admissible class
    once per spanning subgraph.  The series is an isomorphism invariant, so
    its terms are computed on the labelling given.  Capped at
    ``PSUM_VERTEX_CAP`` vertices and, for k = 2, at ``PSUM_SUBSET_CAP``
    spanning subgraphs.  A multigraph with a repeated edge raises
    ``ValueError`` before any work.
    """
    _check_simple(g, "power-sum expansion")
    _check_series_args(g.n, len(g.edges), k, coeffs, "power-sum expansion")
    g = g.simple() if isinstance(g, Multigraph) else g
    terms = _psum_k1(g) if k == 1 else _psum_subsets(g, k, coeffs == "witness")
    return PSeries(g.n, k, coeffs, terms)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def block_universe(m: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..m}, as sorted tuples."""
    return [tuple(c) for c in combinations(range(1, m + 1), k)]


def random_values(k: int, m: int, seed: int) -> dict[tuple[int, ...], int]:
    """Deterministic pseudorandom value map on the k-subsets of {1..m}.

    Each call returns a fresh dict over values drawn once per (k, m, seed).
    Raises ``ValueError`` unless ``_check_draw`` accepts the arguments."""
    _check_draw(k, m, seed)
    return dict(zip(block_universe(m, k), _random_value_tuple(k, m, seed)))


def _check_draw(k: int, m: int, seed: int) -> None:
    """Refuse a value-map draw unless k is 1 or 2, m is an int >= k and the
    seed an int.  A bool is none of these: ``True == 1`` shares the cache
    key of ``_random_value_tuple`` while seeding ``random.Random`` with a
    different string, so the values would depend on what ran before."""
    _check_k(k)
    if type(m) is not int or m < k:
        raise ValueError(f"need an integer m >= k (got m={m!r})")
    if type(seed) is not int:
        raise ValueError(f"seed must be an integer (got {seed!r})")


@lru_cache(maxsize=256)
def _random_value_tuple(k: int, m: int, seed: int) -> tuple[int, ...]:
    """The values of ``random_values``, in ``block_universe(m, k)`` order."""
    rng = random.Random(f"{seed}:{k}:{m}")
    return tuple(rng.randrange(1, FIXED_PRIME) for _ in block_universe(m, k))


def _value_tuple(m: int, k: int, values: dict[tuple[int, ...], int]) -> tuple[int, ...]:
    """``values`` in ``block_universe(m, k)`` order.  Raises ``ValueError``
    unless m is an int >= k and every block has an int value: the sums are
    exact, which a float breaks and a bool would silently join."""
    if type(m) is not int:
        raise ValueError(f"m must be an integer (got {m!r})")
    if m < k:
        raise ValueError("need m >= k")
    blocks = block_universe(m, k)
    for b in blocks:
        if b not in values:
            raise ValueError(f"value map is missing blocks, e.g. {b}")
        if type(values[b]) is not int:
            raise ValueError(f"value map has non-integer values, e.g. {b}: {values[b]!r}")
    return tuple(values[b] for b in blocks)


def direct_eval(
    g: SimpleGraph, k: int, m: int, values: dict[tuple[int, ...], int]
) -> int:
    """Evaluate X_k(G) directly from its definition, modulo ``FIXED_PRIME``.

    Sums prod_v values[phi(v)] over all maps phi into k-subsets of {1..m}
    with disjoint images on edges.  Independent of the power-sum machinery;
    used as the ground-truth oracle.
    """
    _check_k(k)
    vals = [v % FIXED_PRIME for v in _value_tuple(m, k, values)]
    blocks = block_universe(m, k)
    sets = [set(b) for b in blocks]
    disjoint = [[not (sa & sb) for sb in sets] for sa in sets]

    # one search order, cut into components where no neighbour is placed
    _, earlier = _search_order(g.adjacency())
    starts = [i for i, e in enumerate(earlier) if not e] + [g.n]
    chosen = [0] * g.n
    total = 1
    for start, end in zip(starts, starts[1:]):
        comp_total = 0

        def extend(i: int, running: int) -> None:
            nonlocal comp_total
            if i == end:
                comp_total = (comp_total + running) % FIXED_PRIME
                return
            for bi in range(len(blocks)):
                if all(disjoint[bi][chosen[j]] for j in earlier[i]):
                    chosen[i] = bi
                    extend(i + 1, running * vals[bi] % FIXED_PRIME)

        extend(start, 1)
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


#: labellings per piece of index tables: 6!, one cached piece for any fingerprint
TABLE_PIECE = 720


@lru_cache(maxsize=1 << 9)
def _block_table(w: int, m: int, a: int, b: int) -> array:
    """``x * (m + 1) + y`` for the labels x, y of symbols a, b under each
    injective labelling of w symbols into {1..m}, in ``permutations`` order;
    one byte per entry while the index fits one."""
    labellings = permutations(range(1, m + 1), w)
    return array("B" if m < 15 else "I", [p[a] * (m + 1) + p[b] for p in labellings])


def _table_pieces(w: int, m: int, pairs: list[tuple[int, int]]):
    """One index table per symbol pair for each piece of the injective
    labellings of w symbols into {1..m}: one cached piece when there are at
    most ``TABLE_PIECE``, else streamed from one iterator, never stored whole."""
    if perm(m, w) <= TABLE_PIECE:
        yield [_block_table(w, m, a, b) for a, b in pairs]
        return
    labellings = permutations(range(1, m + 1), w)
    while piece := list(islice(labellings, TABLE_PIECE)):
        yield [[p[a] * (m + 1) + p[b] for p in piece] for a, b in pairs]


@lru_cache(maxsize=1 << 12)
def _orbit_sum(form: str, m: int, vals: tuple[int, ...]) -> int:
    """Orbit sum of one connected component class, modulo ``FIXED_PRIME``.

    ``vals`` holds the value of each block of ``block_universe(m, k)``, in
    that order, laid out flat so that ``flat[x * (m + 1) + y]`` is the value
    of the block {x, y} (of {x} at y = x when k = 1).  Sums the block
    monomial over the injective symbol labellings into {1..m}: each block's
    index table (``_table_pieces``) is mapped through ``flat``, and the
    blocks' value streams are multiplied elementwise and summed, all at C
    level.  The sum is an exact integer and is divided by the automorphism
    count of the labelled component; the division is exact (the
    automorphism group acts freely on injective labellings), which doubles
    as a check on the count.

    Results are cached by (form, m, vals) in a bounded ``lru_cache`` of
    4096 entries, so a component evaluated at the same value map is summed
    once across series, fingerprints and collision searches.
    """
    w, blocks, aut = _component_blocks(form)
    if w > m:
        return 0
    flat = [0] * (m + 1) ** 2
    for b, v in zip(block_universe(m, len(blocks[0])), vals):
        flat[b[0] * (m + 1) + b[-1]] = flat[b[-1] * (m + 1) + b[0]] = v
    total = 0
    for tables in _table_pieces(w, m, [(b[0], b[-1]) for b in blocks]):
        terms = map(flat.__getitem__, tables[0])
        for table in tables[1:]:
            terms = map(mul, terms, map(flat.__getitem__, table))
        total += sum(terms)
    if total % aut:
        raise RuntimeError("orbit sum not divisible by automorphism count")
    return (total // aut) % FIXED_PRIME


@lru_cache(maxsize=1 << 12)
def _class_value(cls: PClass, m: int, vals: tuple[int, ...]) -> int:
    """The product of a class's component orbit sums, modulo ``FIXED_PRIME``."""
    prod = 1
    for comp in cls:
        prod = prod * _orbit_sum(comp, m, vals) % FIXED_PRIME
    return prod


def pseries_eval(series: PSeries, m: int, values: dict[tuple[int, ...], int]) -> int:
    """Evaluate a power-sum series at a finite value map, modulo ``FIXED_PRIME``.

    Each class evaluates to the product of its components' orbit sums; the
    series evaluates to the coefficient-weighted sum.  For a witness series
    this equals ``direct_eval`` identically.  ``values`` needs an integer
    value for every k-subset of {1..m}; it is read once into a tuple in
    ``block_universe(m, k)`` order.  Class values are cached by (class, m,
    tuple) in a bounded ``lru_cache`` of 4096 entries, so a class that many
    series share is valued once per value map; the orbit sums under them
    have a cache of their own.
    """
    vals = _value_tuple(m, series.k, values)
    return sum(c * _class_value(cls, m, vals) for cls, c in series.terms.items()) % FIXED_PRIME


# ---------------------------------------------------------------------------
# the monomial (disjoint-support) basis
# ---------------------------------------------------------------------------
#
# The series stores coefficients over *tuples of connected classes*, and
# evaluation multiplies the components' orbit sums.  Sharing symbols between
# two components produces a merged class, e.g. for single blocks
# O_b * O_b = O_bb + 2 O_(b)(b)  (for k = 1, p_1^2 = m_2 + 2 m_11).  The
# canonical basis is that of *disjoint-support* multiset classes, whose
# orbit sums have pairwise disjoint monomial supports.
#
# The products are linearly independent all the same, for k = 2 as for
# Stanley's k = 1 power sums.  ``_merge_expansion(T, C)`` yields one class
# on w_T + w_C symbols, the disjoint class sorted(T + (C,)), with a positive
# coefficient, and otherwise only classes on fewer symbols.  So a term maps
# to itself plus classes on fewer symbols: graded by symbol count the map is
# triangular with a positive diagonal, and the top-grade terms of a nonzero
# combination keep their own classes.  Two series in normal form (sorted
# class tuples, no zero coefficient) have equal ``true_basis`` vectors
# exactly when their terms are equal.


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
    variables exactly when their vectors agree.  The expansion is triangular
    (see the note above), so for series in normal form that is exactly when
    their terms agree.  (For a witness series of a graph, the
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


def _tree_class_codes(g: SimpleGraph) -> frozenset[str]:
    """Centre-rooted codes of the k = 2 tree classes of G: read off a tree
    directly, else filtered from the full series."""
    codes = _lambda_t_codes(g)
    return _series_tree_codes(kneser_psum(g, 2)) if codes is None else codes


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
    return frozenset((_tree_form(code)[0],) for code in _tree_class_codes(g))


def lambda_t_tilde(g: SimpleGraph) -> tuple[frozenset[PClass], tuple[int, ...]]:
    """The tree classes of minimal profile, and that minimal profile.

    Each tree class is profiled by the minimum rooted degree sequence of its
    symbol tree; the classes attaining the lexicographic minimum are the
    ones reconstruction deletes a leaf from.  The classes are profiled by
    their codes, and only the minimal ones are canonicalised.
    """
    codes = _tree_class_codes(g)
    if not codes:
        raise ValueError("graph has no tree classes in its support")
    return _minimal_tree_classes(codes)


@dataclass(frozen=True)
class TreeAugmentation:
    """Output of ``augment_tree_lambda``: the block multiset and the
    per-vertex assignment realising it, sorted by vertex."""

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
    ro = _least_leaves(_tree_lists(g))[0]
    assignment = []
    for i, v in enumerate(ro.order):
        pos = i + 1
        parent = ro.parent_pos[i] + 1  # root: -1 + 1 = 0
        assignment.append((v, (parent, pos)))
    lam = Lambda.from_blocks(2, (b for _, b in assignment))
    return TreeAugmentation(lam, tuple(sorted(assignment)))

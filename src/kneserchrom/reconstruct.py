"""Rebuilding a tree from the tree classes of its block-multiset invariant.

A tree T on n vertices admits, among the classes in the support of its
k = 2 invariant, certain *tree classes*: classes whose symbol graph is a
tree on n + 1 symbols.  Profiling each such class by the minimum rooted
degree sequence of its symbol tree singles out the classes of minimal
profile, and the reconstruction below recovers T from any one of them by
deleting a minimum leaf -- the augmented multiset of ``augment_tree_lambda``
is such a class, and deleting its pendant root symbol undoes the
augmentation.

The procedure is deterministic end to end: the canonically smallest
minimal-profile class is chosen, its symbol tree is read off the pairs of
its canonical form, and the label-smallest minimum leaf is deleted.  Every
step reads only isomorphism-invariant data, so isomorphic inputs
reconstruct to the identical labelled tree.

``verify_tau_isomorphism`` checks the companion witness statement: for the
canonical parent-position multiset of a tree, *any* admissibility witness
phi induces, via  tau(v) = max phi(v),  an isomorphism of the tree onto the
position tree formed by the blocks away from the pendant symbol 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Lambda, SimpleGraph, induced_subgraph, is_tree, parse_form
from .kneser import AdmissibleWitness, PClass, PSeries
from .profiles import _least_leaves
from .trees import _minimal_profile, _minimal_tree_classes, _series_tree_codes


@dataclass(frozen=True)
class ReconstructionResult:
    """A reconstructed tree together with the class and leaf that produced it."""

    graph: SimpleGraph
    source_class: PClass
    removed_leaf: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.graph.n,
            "edges": [list(e) for e in self.graph.sorted_edges()],
            "source_class": list(self.source_class),
            "removed_leaf": self.removed_leaf,
        }


def reconstruct_from_lambda_t(classes) -> ReconstructionResult:
    """Reconstruct a tree from its set of tree classes.

    Among the given classes those of minimal symbol-tree profile are kept,
    named by their canonical forms however they were spelled; from the
    canonically smallest one, the label-smallest minimum leaf of its
    canonical representative is deleted and the rest relabelled in label
    order.  Classes on different symbol counts raise ``ValueError``, and a
    class on more than ``VERTEX_CAP`` symbols ``CapExceededError``.
    """
    return _delete_minimum_leaf(_minimal_profile(classes)[0])


def _delete_minimum_leaf(minimal) -> ReconstructionResult:
    """The reconstruction step of ``reconstruct_from_lambda_t`` on classes
    already known to be the minimal-profile ones, named by the canonical
    forms ``_minimal_tree_classes`` made; the chosen form's symbol tree is
    built once, with no check or cap of its own."""
    chosen = min(minimal)
    augmented = SimpleGraph.from_edges(*parse_form(chosen[0]))
    leaf = _least_leaves(augmented.adjacency())[1][0]
    graph = induced_subgraph(augmented, [v for v in range(augmented.n) if v != leaf])
    return ReconstructionResult(graph, chosen, leaf)


def reconstruct_from_invariant(series: PSeries) -> ReconstructionResult:
    """Reconstruct a tree from a k = 2 power-sum series via its tree classes.

    Filters the support for single-component classes whose symbol graph is
    a tree on n + 1 symbols; raises ``ValueError`` when the series has no
    such class (in particular for every k = 1 series).
    """
    if series.k != 2:
        raise ValueError("tree reconstruction requires a k = 2 series")
    codes = _series_tree_codes(series)
    if not codes:
        raise ValueError("series has no tree classes in its support")
    return _delete_minimum_leaf(_minimal_tree_classes(codes)[0])


# ---------------------------------------------------------------------------
# the position-map witness statement
# ---------------------------------------------------------------------------


def position_tree(lam: Lambda) -> SimpleGraph:
    """The tree on positions 1..n cut out of a parent-position multiset.

    Blocks of the multiset are {parent position, position} pairs plus the
    pendant root block {0, 1}; dropping symbol 0 leaves a tree on the n
    positions (returned 0-based: position i becomes vertex i - 1).
    ``ValueError`` when the blocks of ``lam`` cut out no such tree.
    """
    n = len(lam.blocks)
    if lam.k != 2:
        raise ValueError("position trees are cut out of 2-element blocks")
    edges = [(a - 1, b - 1) for a, b in lam.blocks if a > 0]
    g = SimpleGraph.from_edges(n, edges)
    if not is_tree(g):
        raise ValueError("blocks away from symbol 0 do not form a tree on positions")
    return g


def tau_map(witness: AdmissibleWitness) -> dict[int, int]:
    """The position map of a witness: each vertex to the larger symbol of
    its block.  For parent-position blocks {p_i, i} with p_i < i this reads
    off the position claimed by the block."""
    return {v: max(b) for v, b in witness.assignment}


def verify_tau_isomorphism(
    g: SimpleGraph, lam: Lambda, witness: AdmissibleWitness
) -> bool:
    """Check that the position map of a witness is an isomorphism.

    True when  tau(v) = max(witness(v))  is a bijection of V(G) onto the
    positions 1..n carrying every edge of G onto an edge of the position
    tree of ``lam``: a full isomorphism test when G has n - 1 edges and
    ``lam`` n blocks.  Other counts are False, and so are a ``lam`` with no
    position tree and a witness that does not give each vertex of G exactly
    one block.
    """
    n = g.n
    if len(lam.blocks) != n or len(g.edges) != n - 1:
        return False
    if sorted(v for v, _ in witness.assignment) != list(range(n)):
        return False
    tau = tau_map(witness)
    if sorted(tau.values()) != list(range(1, n + 1)):
        return False
    try:
        ptree = position_tree(lam)
    except ValueError:
        return False
    return all(
        (min(tau[u], tau[v]) - 1, max(tau[u], tau[v]) - 1) in ptree.edges
        for u, v in g.edges
    )

"""Block-multiset chromatic invariants of small graphs.

For k in {1, 2}, the invariant of a graph G sums one monomial per map of
V(G) into k-element symbol blocks with disjoint blocks on adjacent
vertices; k = 1 recovers the chromatic symmetric function.  The package
expands the invariant in the power-sum basis indexed by block-multiset
classes, evaluates it modulo a fixed prime, extracts the tree classes of
the support, and reconstructs a tree from them -- with exhaustive
machine verification at small sizes that the k = 2 invariant separates
free trees.
"""

from .catalog import (
    CACHE_VERSION,
    DEFAULT_SEED,
    Fingerprint,
    SeriesCache,
    cached_psum,
    canonical_graph6,
    collide_search,
    fingerprint,
    verify_trees,
)
from .generate import FREE_TREE_COUNTS, enumerate_graphs, enumerate_trees
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .graphs import (
    NONTREE_VERTEX_CAP,
    VERTEX_CAP,
    CapExceededError,
    Lambda,
    Multigraph,
    SimpleGraph,
    are_isomorphic,
    automorphism_count,
    canonical_form,
    component_class_string,
    connected_components,
    graph_components,
    graph_from_form,
    induced_subgraph,
    is_connected,
    is_tree,
    lambda_class,
    parse_form,
    relabel,
    singleton_class_string,
)
from .kneser import (
    FIXED_PRIME,
    PSUM_VERTEX_CAP,
    AdmissibleWitness,
    PSeries,
    TreeAugmentation,
    augment_tree_lambda,
    block_universe,
    direct_eval,
    is_admissible,
    kneser_psum,
    lambda_t,
    lambda_t_tilde,
    pseries_eval,
    random_values,
    true_basis,
)
from .profiles import (
    RootedOrder,
    min_degree_sequence,
    min_rooted_degree_sequence,
    minimum_leaves,
    rooted_order,
)
from .reconstruct import (
    ReconstructionResult,
    position_tree,
    reconstruct_from_invariant,
    reconstruct_from_lambda_t,
    tau_map,
    verify_tau_isomorphism,
)
from .trees import LAMBDA_T_CAP

__version__ = "0.1.0"

__all__ = [
    "AdmissibleWitness",
    "CACHE_VERSION",
    "CapExceededError",
    "DEFAULT_SEED",
    "FIXED_PRIME",
    "FREE_TREE_COUNTS",
    "Fingerprint",
    "Graph6Error",
    "LAMBDA_T_CAP",
    "Lambda",
    "Multigraph",
    "NONTREE_VERTEX_CAP",
    "PSUM_VERTEX_CAP",
    "PSeries",
    "ReconstructionResult",
    "RootedOrder",
    "SeriesCache",
    "SimpleGraph",
    "TreeAugmentation",
    "VERTEX_CAP",
    "are_isomorphic",
    "augment_tree_lambda",
    "automorphism_count",
    "block_universe",
    "cached_psum",
    "canonical_form",
    "canonical_graph6",
    "collide_search",
    "component_class_string",
    "connected_components",
    "direct_eval",
    "enumerate_graphs",
    "enumerate_trees",
    "fingerprint",
    "graph_components",
    "graph_from_form",
    "induced_subgraph",
    "is_admissible",
    "is_connected",
    "is_tree",
    "kneser_psum",
    "lambda_class",
    "lambda_t",
    "lambda_t_tilde",
    "min_degree_sequence",
    "min_rooted_degree_sequence",
    "minimum_leaves",
    "parse_form",
    "parse_graph6",
    "position_tree",
    "pseries_eval",
    "random_values",
    "reconstruct_from_invariant",
    "reconstruct_from_lambda_t",
    "relabel",
    "rooted_order",
    "singleton_class_string",
    "tau_map",
    "true_basis",
    "verify_tau_isomorphism",
    "verify_trees",
    "write_graph6",
]

"""Minimum rooted degree sequences: the tree statistic behind reconstruction.

Order the vertices of a tree by non-decreasing distance from a root (ties
broken to make the degree sequence lexicographically smallest) and read off
the degrees.  Minimising over roots gives the tree's *minimum profile* —
computable greedily layer by layer, and minimised only at leaves.
"""

from kneserchrom import (
    SimpleGraph,
    enumerate_trees,
    min_degree_sequence,
    min_rooted_degree_sequence,
    minimum_leaves,
    rooted_order,
)


def main():
    # a 12-vertex tree with one degree-4 vertex
    tree = SimpleGraph.from_edges(
        12,
        [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7),
         (3, 8), (3, 9), (7, 10), (7, 11)],
    )

    print("per-root profiles of a 12-vertex tree:")
    best = min_degree_sequence(tree)
    for root in range(tree.n):
        prof = min_rooted_degree_sequence(tree, root)
        marker = "  <- minimum" if prof == best else ""
        print(f"  root {root:2d}: {prof}{marker}")

    leaves = minimum_leaves(tree)
    print(f"\nminimum profile: {best}")
    print(f"attained at leaves {leaves} (and only there)")

    ro = rooted_order(tree, leaves[0])
    print(f"\ngreedy rooted order from root {leaves[0]}: {ro.order}")
    deg = tree.degrees()
    print("degrees along it:", tuple(deg[v] for v in ro.order))

    # how far does the profile alone go as an invariant?
    print("\ndistinct profiles vs distinct trees:")
    for n in range(2, 10):
        trees = enumerate_trees(n)
        profiles = {min_degree_sequence(t) for t in trees}
        print(
            f"  n={n}: {len(trees):3d} trees, {len(profiles):3d} distinct profiles"
            f"  ({'injective' if len(profiles) == len(trees) else 'collides'})"
        )


if __name__ == "__main__":
    main()

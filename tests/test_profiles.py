"""Minimum rooted degree sequences against a brute-force layer oracle."""

from __future__ import annotations

import pytest

from oracles import brute_min_profile

from kneserchrom import (
    SimpleGraph,
    enumerate_trees,
    min_degree_sequence,
    min_rooted_degree_sequence,
    minimum_leaves,
    relabel,
    rooted_order,
)
from kneserchrom.graphs import _tree_code
from kneserchrom.trees import _code_profile


def test_single_vertex():
    g = SimpleGraph.from_edges(1, [])
    assert min_degree_sequence(g) == (0,)
    assert minimum_leaves(g) == (0,)


def test_path_profiles():
    p4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    # rooted at an end: degrees along the path are 1,2,2,1
    assert min_rooted_degree_sequence(p4, 0) == (1, 2, 2, 1)
    # rooted at an inner vertex the sequence starts with 2: strictly worse
    assert min_rooted_degree_sequence(p4, 1) == (2, 1, 2, 1)
    assert min_degree_sequence(p4) == (1, 2, 2, 1)
    assert minimum_leaves(p4) == (0, 3)  # both ends attain the minimum


def test_star_min_leaves():
    star = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert min_degree_sequence(star) == (1, 3, 1, 1)
    assert minimum_leaves(star) == (1, 2, 3)


def test_twelve_vertex_tree_profile():
    # 12-vertex tree whose minimum profile and minimum leaves are known
    edges = [(0, 1), (0, 2), (1, 3), (1, 5), (1, 4), (2, 6), (2, 7),
             (3, 9), (3, 8), (7, 10), (7, 11)]
    g = SimpleGraph.from_edges(12, edges)
    assert min_degree_sequence(g) == (1, 3, 1, 3, 1, 2, 4, 1, 1, 3, 1, 1)
    assert minimum_leaves(g) == (10, 11)


def test_rooted_order_refuses_out_of_range_root():
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    for root in (-1, 3):
        with pytest.raises(ValueError) as exc:
            rooted_order(p3, root)
        assert str(exc.value) == f"root {root} out of range"


def test_rooted_order_structure():
    g = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    ro = rooted_order(g, 0)
    assert ro.order[0] == 0
    assert ro.parent_pos[0] == -1
    for i, v in enumerate(ro.order[1:], start=1):
        p = ro.order[ro.parent_pos[i]]
        assert ro.parent_pos[i] < i
        assert (min(p, v), max(p, v)) in g.edges
    deg = g.degrees()
    assert ro.profile == tuple(deg[v] for v in ro.order)


def test_rooted_order_requires_tree():
    cyc = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        rooted_order(cyc, 0)


def test_greedy_profile_equals_brute_force():
    # the greedy per-layer ascending sort must give the lexicographic
    # minimum over all layer orderings, for every root of every small tree
    for n in range(1, 7):
        for t in enumerate_trees(n):
            edges = t.sorted_edges()
            for root in range(n):
                expected = brute_min_profile(n, edges, root)
                assert min_rooted_degree_sequence(t, root) == expected


def test_min_profile_is_attained_and_minimal():
    for n in range(2, 10):
        for t in enumerate_trees(n):
            prof = min_degree_sequence(t)
            per_root = [min_rooted_degree_sequence(t, r) for r in range(n)]
            assert prof == min(per_root)
            leaves = minimum_leaves(t)
            assert all(per_root[v] == prof for v in leaves)
            assert all(per_root[v] > prof for v in range(n) if v not in leaves)
            # a minimum opener is always a leaf of minimum degree
            assert all(t.degrees()[v] == 1 for v in leaves)


def test_code_profile_equals_min_degree_sequence():
    # the profile read off a code's adjacency lists against the graph route,
    # in the enumerated labelling and in its reverse
    for n in range(1, 11):
        for t in enumerate_trees(n):
            for h in (t, relabel(t, list(range(n))[::-1])):
                assert _code_profile(_tree_code(n, h.edges)) == min_degree_sequence(h)

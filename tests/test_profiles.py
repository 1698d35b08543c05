"""Minimum rooted degree sequences against a brute-force layer oracle."""

from __future__ import annotations

import pytest

from oracles import brute_min_profile, every_leaf_rootings

from kneserchrom import (
    CapExceededError,
    SimpleGraph,
    augment_tree_lambda,
    enumerate_trees,
    min_degree_sequence,
    min_rooted_degree_sequence,
    minimum_leaves,
    relabel,
    rooted_order,
)
from kneserchrom import profiles
from kneserchrom.graphs import _tree_adjacency, _tree_code
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


def test_profiles_refuse_trees_above_the_vertex_cap(monkeypatch):
    # every profile roots the tree at each leaf, so an oversized tree is
    # refused before its adjacency is even built
    def build(*args):
        raise AssertionError("the tree was built before the cap check")

    monkeypatch.setattr(profiles, "_tree_adjacency", build)
    star16 = SimpleGraph.from_edges(16, [(0, i) for i in range(1, 16)])
    star3000 = SimpleGraph.from_edges(3000, [(0, i) for i in range(1, 3000)])
    for call in (
        lambda: rooted_order(star16, 0),
        lambda: min_degree_sequence(star16),
        lambda: minimum_leaves(star16),
        lambda: augment_tree_lambda(star16),
        lambda: min_degree_sequence(star3000),
    ):
        with pytest.raises(CapExceededError, match=r"^tree profiles capped at 14 vertices"):
            call()


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


def test_rootings_of_one_leaf_per_neighbour_equal_every_leaf_rootings():
    # orders, parent positions and profiles, in the enumerated labelling and
    # in its reverse: the pruned roots lose no minimum leaf and add none
    for n in range(1, 11):
        for t in enumerate_trees(n):
            for h in (t, relabel(t, list(range(n))[::-1])):
                adj = _tree_adjacency(n, h.edges)
                expected = every_leaf_rootings(adj)
                rootings = tuple(profiles._rooted_order(adj, v) for v in minimum_leaves(h))
                assert rootings == expected, h
                assert profiles._least_leaves(adj)[0] == expected[0], h


def test_bounded_rooting_stops_exactly_when_it_exceeds_the_bound():
    # a bound is the profile of another leaf's rooting: the walk gives up
    # only when its own sequence is the larger one, and otherwise returns
    # the unbounded rooting unchanged
    for n in range(2, 11):
        for t in enumerate_trees(n):
            adj = _tree_adjacency(n, t.edges)
            leaves = [v for v in range(n) if len(adj[v]) == 1]
            full = {v: profiles._rooted_order(adj, v) for v in leaves}
            for v in leaves:
                for u in leaves:
                    bounded = profiles._rooted_order(adj, v, bound=full[u].profile)
                    if full[v].profile > full[u].profile:
                        assert bounded is None, (t, v, u)
                    else:
                        assert bounded == full[v], (t, v, u)


def _count_rootings(monkeypatch):
    calls = []
    walk = profiles._rooted_order

    def counted(adj, root, bound=()):
        calls.append(root)
        return walk(adj, root, bound)

    monkeypatch.setattr(profiles, "_rooted_order", counted)
    return calls


def test_augmentation_roots_no_more_than_the_profile(monkeypatch):
    # the least rooting is the one the minimum-leaf pass built, not a
    # second walk from the least minimum leaf
    calls = _count_rootings(monkeypatch)
    for n in range(1, 10):
        for t in enumerate_trees(n):
            calls.clear()
            min_degree_sequence(t)
            profiled = len(calls)
            calls.clear()
            augment_tree_lambda(t)
            assert len(calls) == profiled, t


def test_verify_trees_rootings_are_counted(monkeypatch):
    # 644 after the trees are enumerated and the class profiles are
    # forgotten; a second rooting of each least leaf made 739
    from kneserchrom import verify_trees

    for n in range(1, 10):
        enumerate_trees(n)
    _code_profile.cache_clear()
    calls = _count_rootings(monkeypatch)
    assert verify_trees(9, witness=True)["summary"]["all_pass"] is True
    assert len(calls) == 644

"""Free-tree and graph enumeration against counts and Pruefer oracles."""

from __future__ import annotations

import itertools

import pytest

from oracles import labelled_trees, prufer_decode, prufer_tree

from kneserchrom import (
    FREE_TREE_COUNTS,
    CapExceededError,
    canonical_form,
    enumerate_graphs,
    enumerate_trees,
    is_tree,
)


def test_tree_counts_match_reference():
    # 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551 free trees on 1..12 vertices
    for n, expected in enumerate(FREE_TREE_COUNTS, start=1):
        assert len(enumerate_trees(n)) == expected


def test_enumerated_trees_are_distinct_trees():
    for n in range(1, 9):
        trees = enumerate_trees(n)
        forms = [canonical_form(t) for t in trees]
        assert len(set(forms)) == len(trees)
        assert forms == sorted(forms)
        for t in trees:
            assert t.n == n and is_tree(t)


def test_trees_match_prufer_enumeration():
    # every labelled tree arises from a Pruefer sequence, so the canonical
    # forms of all decoded sequences must equal the enumerated class list;
    # the forms come from the oracle's scan, whose edges must match ours
    for n in range(2, 8):
        seen = set()
        seqs = itertools.product(range(n), repeat=n - 2)
        for seq, (edges, form) in zip(seqs, labelled_trees(n), strict=True):
            assert prufer_tree(seq, n).sorted_edges() == sorted(edges)
            seen.add(form)
        assert seen == {canonical_form(t) for t in enumerate_trees(n)}


def test_prufer_tree_matches_independent_decoder():
    for n in range(2, 7):
        for seq in itertools.product(range(n), repeat=n - 2):
            ours = prufer_tree(seq, n).sorted_edges()
            assert ours == sorted(prufer_decode(list(seq), n))


def test_prufer_validation():
    with pytest.raises(ValueError):
        prufer_tree([0, 1], 3)  # wrong length
    with pytest.raises(ValueError):
        prufer_tree([5], 3)  # label out of range


def test_graph_counts_match_reference():
    # 1, 2, 4, 11, 34, 156 unlabelled simple graphs on 1..6 vertices
    expected = [1, 2, 4, 11, 34, 156]
    for n, count in enumerate(expected, start=1):
        graphs = enumerate_graphs(n)
        assert len(graphs) == count
        forms = [canonical_form(g) for g in graphs]
        assert len(set(forms)) == count


def test_graph_enumeration_includes_disconnected():
    graphs = enumerate_graphs(3)
    edge_counts = sorted(len(g.edges) for g in graphs)
    assert edge_counts == [0, 1, 2, 3]


def test_enumeration_caps():
    with pytest.raises(CapExceededError):
        enumerate_graphs(8)
    with pytest.raises(CapExceededError):
        enumerate_trees(15)


def test_enumeration_refuses_empty_graphs():
    for enumerate_, message in [
        (enumerate_trees, "tree enumeration needs n >= 1"),
        (enumerate_graphs, "graph enumeration needs n >= 1"),
    ]:
        with pytest.raises(ValueError) as exc:
            enumerate_(0)
        assert str(exc.value) == message


@pytest.mark.parametrize("bad", [True, False, 2.0, 3.0, "3", None])
def test_enumeration_refuses_sizes_that_are_not_ints(bad):
    # warm caches first: a cached 1 must not answer for True (True == 1)
    for enumerate_ in (enumerate_trees, enumerate_graphs):
        enumerate_(1)
        with pytest.raises(ValueError) as exc:
            enumerate_(bad)
        assert "needs an integer n" in str(exc.value)

"""Graph substrate: construction, canonical forms, automorphisms, classes."""

from __future__ import annotations

import itertools
import json
import random

import networkx as nx
import pytest

from oracles import brute_automorphism_count, labelled_trees

from kneserchrom import (
    CapExceededError,
    Lambda,
    Multigraph,
    SimpleGraph,
    are_isomorphic,
    automorphism_count,
    canonical_form,
    component_class_string,
    connected_components,
    enumerate_graphs,
    enumerate_trees,
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
from kneserchrom.graphs import _canonical_edge_list, _code_adjacency, _tree_code
from kneserchrom.kneser import _component_weights


def test_simple_graph_construction():
    g = SimpleGraph.from_edges(3, [(2, 1), (0, 1)])
    assert g.sorted_edges() == [(0, 1), (1, 2)]
    assert g.degrees() == [1, 2, 1]
    assert g.adjacency()[1] == [0, 2]


def test_simple_graph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(2, [(0, 2)])


def test_multigraph_multiplicity():
    mg = Multigraph.from_pairs(2, [(0, 1), (1, 0), (0, 1)])
    assert mg.edge_count() == 3
    assert mg.edge_list() == [(0, 1), (0, 1), (0, 1)]
    assert mg.simple().sorted_edges() == [(0, 1)]


def test_components_and_tree_predicates():
    g = SimpleGraph.from_edges(5, [(0, 1), (3, 4)])
    assert graph_components(g) == [[0, 1], [2], [3, 4]]
    assert not is_connected(g)
    path = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert is_tree(path)
    assert not is_tree(SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    # a doubled edge is never a tree even with the right edge count
    assert not is_tree(Multigraph.from_pairs(3, [(0, 1), (0, 1)]))
    assert is_tree(Multigraph.from_pairs(2, [(0, 1)]))
    assert not is_tree(Multigraph.from_pairs(0, []))
    assert is_tree(Multigraph.from_pairs(1, []))
    assert not is_tree(Multigraph.from_pairs(4, [(0, 1), (0, 1), (2, 3)]))
    assert not is_tree(Multigraph.from_pairs(5, [(0, 1), (1, 2), (0, 2), (3, 4)]))


def test_canonical_form_examples():
    k2 = SimpleGraph.from_edges(2, [(0, 1)])
    assert canonical_form(k2) == "2:[[0,1]]"
    double = Multigraph.from_pairs(2, [(0, 1), (0, 1)])
    assert canonical_form(double) == "2:[[0,1],[0,1]]"
    # the 3-symbol path: ends are one refinement class, centre the other,
    # so the centre is forced to the last position
    p3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    assert canonical_form(p3) == "3:[[0,2],[1,2]]"


def test_canonical_form_relabel_invariance():
    rng = random.Random(5)
    for n in range(2, 6):
        for g in enumerate_graphs(n):
            base = canonical_form(g)
            for _ in range(6):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(relabel(g, perm)) == base


def test_canonical_form_separates_nonisomorphic_small_graphs():
    # complete cross-check against networkx on every pair with n <= 5
    for n in range(1, 6):
        graphs = enumerate_graphs(n)
        forms = [canonical_form(g) for g in graphs]
        assert len(set(forms)) == len(graphs)
        for (ga, fa), (gb, fb) in itertools.combinations(zip(graphs, forms), 2):
            na = nx.Graph(ga.sorted_edges())
            na.add_nodes_from(range(ga.n))
            nb = nx.Graph(gb.sorted_edges())
            nb.add_nodes_from(range(gb.n))
            assert (fa == fb) == nx.is_isomorphic(na, nb)


def test_canonical_form_multigraph_multiplicities_matter():
    a = Multigraph.from_pairs(3, [(0, 1), (0, 1), (1, 2)])
    b = Multigraph.from_pairs(3, [(0, 1), (1, 2), (1, 2)])
    # a and b are the same shape (double edge at an end of a 2-path), and
    # relabelling 0 <-> 1 shows the doubled edge may sit on either side
    c = Multigraph.from_pairs(3, [(0, 1), (0, 1), (0, 2)])
    assert canonical_form(a) == canonical_form(b) == canonical_form(c)
    # same simple support, same edge total, different placement: a double
    # edge at the end of a 3-path is not a double edge in its middle
    end = Multigraph.from_pairs(4, [(0, 1), (0, 1), (1, 2), (2, 3)])
    mid = Multigraph.from_pairs(4, [(0, 1), (1, 2), (1, 2), (2, 3)])
    assert canonical_form(end) != canonical_form(mid)


def test_canonical_form_cap():
    big = SimpleGraph.from_edges(15, [(i, i + 1) for i in range(14)])
    with pytest.raises(CapExceededError):
        canonical_form(big)


def test_tree_code_agrees_with_canonical_form():
    # every labelled tree with n <= 7: equal codes exactly for equal forms,
    # and each code decodes to a tree that encodes back to it
    for n in range(1, 8):
        pairs = {(_tree_code(n, edges), form) for edges, form in labelled_trees(n)}
        codes = {c for c, _ in pairs}
        assert len(codes) == len({f for _, f in pairs}) == len(pairs)
        for c in codes:
            adj = _code_adjacency(c)
            edges = [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v]
            assert _tree_code(n, edges) == c
    assert _tree_code(1, []) == "()" and _code_adjacency("()") == [[]]
    assert _tree_code(2, [(1, 0)]) == "(())" and _code_adjacency("(())") == [[1], [0]]
    # two centres (the middle of P4): both rootings give the same least code
    assert _tree_code(4, [(0, 1), (1, 2), (2, 3)]) == _tree_code(4, [(2, 0), (0, 3), (3, 1)])



def test_tree_code_refuses_non_trees():
    # n - 1 edges with a cycle: the leaf peeling used to loop forever here
    for n, edges in [
        (4, [(0, 1), (1, 2), (0, 2)]),
        (3, [(0, 1), (1, 2), (0, 2)]),
        (3, [(0, 1), (0, 1)]),
        (2, [(0, 0)]),
        (3, [(0, 1)]),
        (0, []),
    ]:
        assert _tree_code(n, edges) is None
    # such graphs still reach the ordinary search through canonical_form
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
    assert canonical_form(g) == canonical_form(SimpleGraph.from_edges(4, [(1, 2), (2, 3), (1, 3)]))
    assert automorphism_count(g) == 6


def test_tree_forms_are_labelling_invariant():
    # trees are looked up by code and searched on the code-decoded labelling;
    # the search run on the input's own labelling must give the same result
    rng = random.Random(10)
    for n in range(1, 11):
        for tree in enumerate_trees(n):
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                g = relabel(tree, perm)
                body, aut = _canonical_edge_list(n, tuple((e, 1) for e in g.sorted_edges()))
                assert canonical_form(g) == f"{n}:" + json.dumps(body, separators=(",", ":"))
                assert automorphism_count(g) == aut

def test_parse_and_materialise_form():
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    form = canonical_form(g)
    n, pairs = parse_form(form)
    assert n == 4 and len(pairs) == 3
    back = graph_from_form(form)
    assert isinstance(back, SimpleGraph)
    assert canonical_form(back) == form
    mg = graph_from_form("2:[[0,1],[0,1]]")
    assert isinstance(mg, Multigraph)
    assert mg.edge_count() == 2


def test_are_isomorphic_mixed_types():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
    mg = Multigraph.from_pairs(3, [(1, 2), (0, 1)])
    assert are_isomorphic(g, mg)
    assert not are_isomorphic(g, Multigraph.from_pairs(3, [(0, 1), (0, 1)]))


def test_automorphism_counts_known_groups():
    path4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert automorphism_count(path4) == 2
    triangle = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert automorphism_count(triangle) == 6
    k4 = SimpleGraph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert automorphism_count(k4) == 24
    star = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert automorphism_count(star) == 6
    c5 = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert automorphism_count(c5) == 10
    double = Multigraph.from_pairs(2, [(0, 1), (0, 1)])
    assert automorphism_count(double) == 2


def test_automorphism_count_against_networkx():
    rng = random.Random(11)
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            ng = nx.Graph(g.sorted_edges())
            ng.add_nodes_from(range(g.n))
            matcher = nx.algorithms.isomorphism.GraphMatcher(ng, ng)
            expected = sum(1 for _ in matcher.isomorphisms_iter())
            perm = list(range(n))
            rng.shuffle(perm)
            assert automorphism_count(g) == expected
            assert automorphism_count(relabel(g, perm)) == expected


def test_automorphism_count_on_component_classes():
    # the k = 2 symbol multigraphs the orbit sums divide by, parallel edges included
    classes = set()
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            if is_connected(g):
                classes |= _component_weights(canonical_form(g), 2).keys()
    assert len(classes) == 53
    for form in sorted(classes):
        w, pairs = parse_form(form)
        assert automorphism_count(Multigraph.from_pairs(w, pairs)) == (
            brute_automorphism_count(w, pairs)
        ), form


def test_relabel_and_induced_subgraph():
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = relabel(g, [3, 2, 1, 0])
    assert h.sorted_edges() == [(0, 1), (1, 2), (2, 3)]
    sub = induced_subgraph(g, [1, 2, 3])
    assert sub.n == 3 and sub.sorted_edges() == [(0, 1), (1, 2)]


def test_lambda_validation():
    lam = Lambda.from_blocks(2, [(1, 0), (1, 2)])
    assert lam.blocks == ((0, 1), (1, 2))
    assert lam.symbols() == [0, 1, 2]
    with pytest.raises(ValueError):
        Lambda.from_blocks(2, [(0, 0)])
    with pytest.raises(ValueError):
        Lambda.from_blocks(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        Lambda.from_blocks(1, [(-1,)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SimpleGraph(-1, frozenset()), "vertex count must be non-negative"),
        (lambda: Multigraph(-1, ()), "vertex count must be non-negative"),
        (lambda: Multigraph(2, (((0, 2), 1),)), "edge (0,2) out of range for n=2"),
        (lambda: Multigraph(2, (((0, 1), 0),)), "edge multiplicity must be positive"),
        (lambda: Lambda(2, ((1, 0),)), "block (1, 0) is not sorted"),
        (lambda: Lambda(2, ((1, 2), (0, 1))), "blocks must be stored sorted"),
        (
            lambda: canonical_form(SimpleGraph(0, frozenset())),
            "canonical form requires at least one vertex",
        ),
        (
            lambda: graph_from_form("1:[[0]]"),
            "form string does not describe a 2-uniform graph",
        ),
        (
            lambda: component_class_string(Lambda(1, ((0,), (1,)))),
            "1-uniform component must use a single symbol",
        ),
    ],
    ids=[
        "simple-negative-n",
        "multigraph-negative-n",
        "multigraph-edge-range",
        "multigraph-zero-multiplicity",
        "lambda-unsorted-block",
        "lambda-unsorted-blocks",
        "canonical-form-empty",
        "form-not-2-uniform",
        "1-uniform-two-symbols",
    ],
)
def test_value_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_connected_components_of_block_multiset():
    lam = Lambda.from_blocks(2, [(0, 1), (1, 2), (3, 4), (3, 4)])
    parts = connected_components(lam)
    assert [p.blocks for p in parts] == [
        ((0, 1), (1, 2)),
        ((3, 4), (3, 4)),
    ]


def test_lambda_class_strings():
    assert singleton_class_string(3) == "1:[[0],[0],[0]]"
    lam1 = Lambda.from_blocks(1, [(7,), (7,)])
    assert component_class_string(lam1) == "1:[[0],[0]]"
    # symbols are relabelled, so shifted multisets share a class
    lam = Lambda.from_blocks(2, [(5, 9), (9, 11)])
    lam2 = Lambda.from_blocks(2, [(0, 1), (1, 2)])
    assert component_class_string(lam) == component_class_string(lam2)
    mixed = Lambda.from_blocks(2, [(0, 1), (4, 5), (5, 6)])
    assert lambda_class(mixed) == ("2:[[0,1]]", "3:[[0,2],[1,2]]")

"""Graph substrate: construction, canonical forms, automorphisms, classes."""

from __future__ import annotations

import itertools
import json
import random

import networkx as nx
import pytest

from oracles import (
    brute_automorphism_count,
    brute_canonical_edge_list,
    centre_code,
    labelled_trees,
    rooted_code,
)

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
    rooted_order,
    singleton_class_string,
)
from kneserchrom import graphs
from kneserchrom.graphs import (
    _canonical_edge_list,
    _centre_rooted,
    _code_adjacency,
    _code_children,
    _rooted_code,
    _tree_adjacency,
    _tree_code,
)
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


def test_components_agree_with_networkx():
    rng = random.Random(22)
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for h in (g, relabel(g, perm)):
                nh = nx.Graph(h.sorted_edges())
                nh.add_nodes_from(range(n))
                expected = sorted(sorted(c) for c in nx.connected_components(nh))
                assert graph_components(h) == expected
                assert is_connected(h) == nx.is_connected(nh)
    # block multisets on sparse, gapped symbols: each part holds the blocks
    # of one symbol component, parts in order of their least block
    for k in (1, 2):
        for _ in range(500):
            blocks = [tuple(rng.sample(range(0, 30, 3), k)) for _ in range(rng.randint(0, 9))]
            lam = Lambda.from_blocks(k, blocks)
            symbols = nx.Graph()
            symbols.add_nodes_from(lam.symbols())
            symbols.add_edges_from(b for b in lam.blocks if k == 2)
            expected = sorted(
                tuple(b for b in lam.blocks if b[0] in comp)
                for comp in nx.connected_components(symbols)
            )
            assert [part.blocks for part in connected_components(lam)] == expected
            assert all(part.k == k for part in connected_components(lam))


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


def test_non_tree_search_cap(monkeypatch):
    # a cycle is one refinement class with no twins: n! leaves
    cube = SimpleGraph.from_edges(
        8, [(u, u ^ bit) for u in range(8) for bit in (1, 2, 4) if u < u ^ bit]
    )
    assert canonical_form(cube).startswith("8:")
    assert automorphism_count(cube) == 48
    octagon = Lambda.from_blocks(2, [(i, (i + 1) % 8) for i in range(8)])
    assert lambda_class(octagon) == (
        "8:[[0,1],[0,2],[1,3],[2,4],[3,5],[4,6],[5,7],[6,7]]",
    )
    # trees keep VERTEX_CAP, and a refused non-tree never reaches the search
    path = SimpleGraph.from_edges(14, [(i, i + 1) for i in range(13)])
    assert automorphism_count(path) == 2

    def search(*args):
        raise AssertionError("the labelling search ran")

    monkeypatch.setattr(graphs, "_search_form", search)
    c9 = SimpleGraph.from_edges(9, [(i, (i + 1) % 9) for i in range(9)])
    with pytest.raises(CapExceededError) as exc:
        canonical_form(c9)
    assert str(exc.value) == "canonical form of a non-tree capped at 8 vertices (got 9)"
    with pytest.raises(CapExceededError):
        automorphism_count(Multigraph.from_pairs(9, [(i, i + 1) for i in range(8)] + [(0, 1)]))


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



def test_centre_rooted_equals_decoded_centre_code():
    # the one centre rule against the leaf-peeling oracle.  At every root of
    # every tree with n <= 10: the builder's rooted code, re-rooted in place;
    # a tree-class code has its root's last child out of order, so each code
    # is also tried with that list reversed.  And the whole builder on each
    # tree in its enumerated and its reversed labelling, and on each of its
    # one-leaf extensions
    for n in range(1, 11):
        for t in enumerate_trees(n):
            adj = _tree_adjacency(n, t.edges)
            for root in range(n):
                code = _rooted_code(adj, root)
                assert code == rooted_code(adj, root)
                for c in (code, "(" + "".join(_code_children(code)[::-1]) + ")"):
                    assert _centre_rooted(c) == centre_code(_code_adjacency(c)), c
            labellings = [(n, t.edges), (n, [(n - 1 - u, n - 1 - v) for u, v in t.edges])]
            labellings += [(n + 1, [*t.edges, (v, n)]) for v in range(n)]
            for m, edges in labellings:
                assert _tree_code(m, edges) == centre_code(_tree_adjacency(m, edges)), edges


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


def _component_classes():
    """The k = 2 symbol multigraphs the orbit sums divide by, parallel edges
    included: the component classes of connected graphs with n <= 5."""
    classes = set()
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            if is_connected(g):
                classes |= _component_weights(canonical_form(g), 2).keys()
    return sorted(classes)


def test_automorphism_count_on_component_classes():
    classes = _component_classes()
    assert len(classes) == 53
    for form in classes:
        w, pairs = parse_form(form)
        assert automorphism_count(Multigraph.from_pairs(w, pairs)) == (
            brute_automorphism_count(w, pairs)
        ), form


def test_canonical_search_matches_unpruned_reference():
    # every graph with n <= 6, every tree with n <= 10 and every component
    # class, each in its own labelling and in one seeded relabelling
    rng = random.Random(19)
    cases = [(g.n, g.sorted_edges()) for n in range(1, 7) for g in enumerate_graphs(n)]
    cases += [(t.n, t.sorted_edges()) for n in range(1, 11) for t in enumerate_trees(n)]
    cases += [parse_form(form) for form in _component_classes()]
    assert len(cases) == 208 + 201 + 53
    for n, pairs in cases:
        perm = list(range(n))
        rng.shuffle(perm)
        for labelled in (pairs, [(perm[u], perm[v]) for u, v in pairs]):
            weighted = Multigraph.from_pairs(n, labelled).edges
            expected = brute_canonical_edge_list(n, weighted)
            assert _canonical_edge_list(n, weighted) == expected, (n, labelled)
        if n <= 7:  # all n! permutations are cheap enough
            assert expected[1] == brute_automorphism_count(n, pairs), (n, pairs)


def test_refinement_keeps_multiplicity_before_colour():
    # the refinement compares (multiplicity, colour) pairs; read as their sum
    # instead, pairs such as (2, 0) and (1, 1) would tie, this multigraph
    # would split into other classes, and its least edge list would change
    weighted = (
        ((0, 1), 2), ((0, 3), 3), ((0, 4), 1), ((1, 3), 3), ((1, 4), 3), ((2, 3), 2), ((2, 4), 1)
    )
    assert _canonical_edge_list(5, weighted) == brute_canonical_edge_list(5, weighted)

def test_relabel_and_induced_subgraph():
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    h = relabel(g, [3, 2, 1, 0])
    assert h.sorted_edges() == [(0, 1), (1, 2), (2, 3)]
    sub = induced_subgraph(g, [1, 2, 3])
    assert sub.n == 3 and sub.sorted_edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "call",
    [
        lambda g: relabel(g, [0, 1, 1]),
        lambda g: relabel(g, [0, 1]),
        lambda g: relabel(g, {0: 0, 1: 1, 3: 2}),
        lambda g: induced_subgraph(g, [0, 0, 1]),
        lambda g: induced_subgraph(g, [0, 7]),
        lambda g: induced_subgraph(g, [0, True]),
        lambda g: rooted_order(g, True),
    ],
    ids=[
        "relabel-not-injective",
        "relabel-too-short",
        "relabel-foreign-key",
        "induced-repeated-vertex",
        "induced-out-of-range",
        "induced-bool",
        "rooted-order-bool",
    ],
)
def test_vertex_arguments_are_refused(call):
    # each was once accepted, or refused by an IndexError or a KeyError
    with pytest.raises(ValueError):
        call(SimpleGraph.from_edges(3, [(0, 1), (0, 2)]))


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
        # True == 1, but a bool is not a block size
        (lambda: Lambda.from_blocks(True, [(0,), (0,)]), "only k = 1 and k = 2 are supported"),
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
        "lambda-k-true",
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

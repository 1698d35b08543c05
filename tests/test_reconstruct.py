"""Tree reconstruction from tree classes and from the full series."""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from oracles import prufer_tree

from kneserchrom import (
    CapExceededError,
    Lambda,
    SimpleGraph,
    are_isomorphic,
    augment_tree_lambda,
    canonical_form,
    enumerate_trees,
    is_admissible,
    kneser_psum,
    lambda_t,
    lambda_t_tilde,
    parse_form,
    position_tree,
    reconstruct_from_invariant,
    reconstruct_from_lambda_t,
    relabel,
    tau_map,
    verify_tau_isomorphism,
)
from kneserchrom.graphs import _tree_code
from kneserchrom.reconstruct import _delete_minimum_leaf
from kneserchrom.trees import _code_lambda_t, _minimal_tree_classes

P3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])


def test_round_trip_via_tree_classes():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            result = reconstruct_from_lambda_t(lambda_t(t))
            assert are_isomorphic(result.graph, t), canonical_form(t)
            assert result.source_class in lambda_t(t)
            assert 0 <= result.removed_leaf <= n


def test_round_trip_via_full_series():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            series = kneser_psum(t, 2)
            result = reconstruct_from_invariant(series)
            assert are_isomorphic(result.graph, t)


def test_both_routes_reconstruct_the_same_result():
    # the series route filters the support, the class route reads the tree
    for n in range(1, 7):
        for t in enumerate_trees(n):
            via_series = reconstruct_from_invariant(kneser_psum(t, 2)).to_json_dict()
            assert via_series == reconstruct_from_lambda_t(lambda_t(t)).to_json_dict()


def test_reconstruction_rejects_k1_series():
    with pytest.raises(ValueError):
        reconstruct_from_invariant(kneser_psum(P3, 1))


def test_reconstruction_rejects_classes_without_trees():
    with pytest.raises(ValueError, match="no tree classes to reconstruct from"):
        reconstruct_from_lambda_t([])
    with pytest.raises(ValueError, match="is not a single tree class"):
        # a single component on n+1 symbols that is not a tree
        reconstruct_from_lambda_t([("3:[[0,1],[0,2],[1,2]]",)])
    with pytest.raises(ValueError, match="is not a single tree class"):
        # a two-component class is not a tree class
        reconstruct_from_lambda_t([("2:[[0,1]]", "2:[[0,1]]")])


@pytest.mark.parametrize(
    "component",
    [
        5,
        '3:[[0,1],[1,"2"]]',
        "3:[[0,1],[1,2.0]]",
        "3:[[0,1],[1,null]]",
        "3:[0,1]",
        "3:5",
        "3:[[false,1],[1,2]]",
    ],
    ids=["int", "str-symbol", "float-symbol", "null-symbol", "flat-body", "int-body", "bool-symbol"],
)
def test_reconstruction_rejects_malformed_class_components(component):
    # a component that is no string, or whose pairs are not two ints each
    # (a bool is no vertex), names no tree class
    with pytest.raises(ValueError, match="is not a single tree class"):
        reconstruct_from_lambda_t([(component,)])


def test_reconstruction_rejects_a_class_with_no_blocks():
    # a tree class of an n-vertex tree has n + 1 >= 2 symbols
    with pytest.raises(ValueError, match=r"^\('1:\[\]',\) is not a single tree class$"):
        reconstruct_from_lambda_t([("1:[]",)])


def test_reconstruction_is_deterministic_and_label_invariant():
    t = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
    first = reconstruct_from_lambda_t(lambda_t(t))
    again = reconstruct_from_lambda_t(lambda_t(t))
    assert first.to_json_dict() == again.to_json_dict()
    # the classes are label-free, so any relabelling gives the same classes
    # and therefore the identical reconstruction output
    shuffled = relabel(t, [3, 0, 5, 1, 4, 2])
    other = reconstruct_from_lambda_t(lambda_t(shuffled))
    assert other.to_json_dict() == first.to_json_dict()


def respelled(cls, rng):
    """A tree class spelled by a random relabelling of its symbols, its
    pairs in random order."""
    w, pairs = parse_form(cls[0])
    perm = list(range(w))
    rng.shuffle(perm)
    blocks = [[perm[a], perm[b]][:: rng.choice((1, -1))] for a, b in pairs]
    rng.shuffle(blocks)
    return (f"{w}:" + json.dumps(blocks, separators=(",", ":")),)


def test_reconstruction_ignores_class_spelling():
    rng = random.Random(11)
    for n in range(1, 8):
        for t in enumerate_trees(n):
            classes = lambda_t(t)
            expected = reconstruct_from_lambda_t(classes).to_json_dict()
            other = [respelled(cls, rng) for cls in classes]
            assert reconstruct_from_lambda_t(other).to_json_dict() == expected


def test_reconstruction_refuses_mixed_symbol_counts():
    p4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="different symbol counts"):
        reconstruct_from_lambda_t(lambda_t(P3) | lambda_t(p4))


def test_reconstruction_refuses_classes_above_vertex_cap():
    # canonical_form cannot name a class on 15 symbols, so it is refused
    # before its code is built
    path15 = "15:" + json.dumps([[i, i + 1] for i in range(14)], separators=(",", ":"))
    with pytest.raises(CapExceededError):
        reconstruct_from_lambda_t([(path15,)])


def test_rebuild_digest_frozen():
    # sha256 over the JSON results of reconstruct_from_lambda_t on
    # lambda_t_tilde and on lambda_t for every tree with 2 <= n <= 9, and of
    # reconstruct_from_invariant on both normalisations of the k = 2 series
    # for every tree with n <= 7, each tree in its enumerated labelling and
    # reversed; recorded when the rebuild step still read the chosen form
    # through graph_from_form and minimum_leaves
    digest = hashlib.sha256()
    for n in range(1, 10):
        for t in enumerate_trees(n):
            for g in (t, relabel(t, list(reversed(range(n))))):
                results = []
                if n >= 2:
                    results += [
                        reconstruct_from_lambda_t(lambda_t_tilde(g)[0]),
                        reconstruct_from_lambda_t(lambda_t(g)),
                    ]
                if n <= 7:
                    results += [
                        reconstruct_from_invariant(kneser_psum(g, 2, coeffs=c))
                        for c in ("witness", "indicator")
                    ]
                for r in results:
                    digest.update(json.dumps(r.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "182f863f830f00110da2eda1109a49234bc4f3f1c63f47f023628aa3f1f003b3"
    )


def test_rebuild_from_fifteen_symbols():
    # the tree classes of a 14-vertex tree have 15 symbols, one above
    # VERTEX_CAP: the rebuild step applies no cap of its own, so past
    # LAMBDA_T_CAP only canonical_form's and _form_code's refusals remain
    rng = random.Random(14)
    trees = [
        SimpleGraph.from_edges(14, [(i, i + 1) for i in range(13)]),
        SimpleGraph.from_edges(14, [(0, i) for i in range(1, 14)]),
    ] + [prufer_tree([rng.randrange(14) for _ in range(12)], 14) for _ in range(4)]
    for g in trees:
        code = _tree_code(14, g.edges)
        minimal = _minimal_tree_classes(_code_lambda_t(code))[0]
        assert _tree_code(14, _delete_minimum_leaf(minimal).graph.edges) == code


def test_reconstruction_output_is_canonical():
    for t in enumerate_trees(6):
        result = reconstruct_from_lambda_t(lambda_t(t))
        assert canonical_form(result.graph) == canonical_form(t)


def test_position_tree_frozen():
    lam = Lambda.from_blocks(2, [(0, 1), (1, 2), (2, 3)])
    pt = position_tree(lam)
    assert pt.n == 3 and pt.sorted_edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        # blocks whose positive pairs form a cycle are not parent blocks
        position_tree(Lambda.from_blocks(2, [(0, 1), (1, 2), (1, 3), (2, 3)]))


def test_tau_map_and_isomorphism_check():
    aug = augment_tree_lambda(P3)
    witness = is_admissible(aug.lam, P3)
    assert witness is not None
    tau = tau_map(witness)
    assert sorted(tau.values()) == [1, 2, 3]
    assert verify_tau_isomorphism(P3, aug.lam, witness)


def test_tau_isomorphism_rejects_wrong_witness():
    # a star admits an assignment of the augmented path blocks only when
    # the tree shapes match, so hand-build a mismatched witness instead
    from kneserchrom.kneser import AdmissibleWitness

    lam = Lambda.from_blocks(2, [(0, 1), (1, 2), (2, 3)])
    bad = AdmissibleWitness(((0, (1, 2)), (1, (0, 1)), (2, (2, 3))))
    # tau = {0: 2, 1: 1, 2: 3}; the edge (0, 1) of the path maps to the
    # position pair {2, 1} which is an edge, but (1, 2) maps to {1, 3}
    # which is not
    assert not verify_tau_isomorphism(P3, lam, bad)


def test_tau_isomorphism_rejects_repeated_position():
    from kneserchrom.kneser import AdmissibleWitness

    lam = Lambda.from_blocks(2, [(0, 1), (1, 2), (2, 3)])
    # tau = {0: 2, 1: 3, 2: 2} carries both path edges onto the position
    # edge {2, 3}, but position 2 is claimed twice and position 1 never
    repeated = AdmissibleWitness(((0, (1, 2)), (1, (2, 3)), (2, (1, 2))))
    assert not verify_tau_isomorphism(P3, lam, repeated)


def test_tau_isomorphism_rejects_vertices_outside_the_graph():
    from kneserchrom.kneser import AdmissibleWitness

    lam = augment_tree_lambda(P3).lam
    # tau = {0: 1, 1: 2, 5: 3} is a bijection onto the positions, but of
    # {0, 1, 5}, not of V(P3): vertex 2 has no block
    foreign = AdmissibleWitness(((0, (0, 1)), (1, (1, 2)), (5, (1, 3))))
    assert not verify_tau_isomorphism(P3, lam, foreign)


def test_tau_isomorphism_rejects_repeated_vertex():
    from kneserchrom.kneser import AdmissibleWitness

    lam = augment_tree_lambda(P3).lam
    # vertex 1 has two blocks; the later one wins in tau, which then reads
    # as the bijection {0: 1, 1: 2, 2: 3} carrying both path edges
    repeated = AdmissibleWitness(((0, (0, 1)), (1, (0, 9)), (1, (1, 2)), (2, (2, 3))))
    assert not verify_tau_isomorphism(P3, lam, repeated)


def test_tau_isomorphism_rejects_a_wrong_block_or_edge_count():
    from kneserchrom.kneser import AdmissibleWitness

    # four blocks for three vertices: tau = {0: 1, 1: 2, 2: 3} carries both
    # path edges onto position edges, but the position tree has 4 positions
    four = Lambda.from_blocks(2, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert not verify_tau_isomorphism(
        P3, four, AdmissibleWitness(((0, (0, 1)), (1, (1, 2)), (2, (1, 3))))
    )
    # no edges at all are carried trivially, yet two isolated vertices are
    # not the position tree on 2 positions
    two = Lambda.from_blocks(2, [(0, 1), (1, 2)])
    edgeless = SimpleGraph.from_edges(2, [])
    assert not verify_tau_isomorphism(
        edgeless, two, AdmissibleWitness(((0, (0, 1)), (1, (1, 2))))
    )


def test_tau_isomorphism_rejects_a_multiset_without_position_tree():
    from kneserchrom.kneser import AdmissibleWitness

    # tau = {0: 1, 1: 2, 2: 3} is a bijection onto the positions, but the
    # blocks away from symbol 0 leave only the position edge {1, 3}
    forest = Lambda.from_blocks(2, [(0, 1), (0, 2), (1, 3)])
    witness = AdmissibleWitness(((0, (0, 1)), (1, (0, 2)), (2, (1, 3))))
    assert not verify_tau_isomorphism(P3, forest, witness)


def test_tau_isomorphism_rejects_one_element_blocks():
    from kneserchrom.kneser import AdmissibleWitness

    # 1-element blocks cut out no position tree at all
    singletons = Lambda.from_blocks(1, [(1,), (2,)])
    p2 = SimpleGraph.from_edges(2, [(0, 1)])
    assert not verify_tau_isomorphism(p2, singletons, AdmissibleWitness(((0, (1,)), (1, (2,)))))


def test_source_class_matches_min_profile():
    # the reconstruction chooses a class attaining the minimal profile
    from kneserchrom import lambda_t_tilde

    for t in enumerate_trees(6):
        result = reconstruct_from_lambda_t(lambda_t(t))
        tilde, _ = lambda_t_tilde(t)
        assert result.source_class in tilde


def test_augmented_class_is_a_tree_class():
    # the augmentation of a tree lands in the tree's own class set, and
    # reconstructing from the singleton gives the tree back
    from kneserchrom import lambda_class

    for t in enumerate_trees(6):
        aug = augment_tree_lambda(t)
        cls = lambda_class(aug.lam)
        assert cls in lambda_t(t)
        rec = reconstruct_from_lambda_t([cls])
        assert are_isomorphic(rec.graph, t)


def test_json_dict_round_trip_fields():
    result = reconstruct_from_lambda_t(lambda_t(P3))
    data = result.to_json_dict()
    rebuilt = SimpleGraph.from_edges(data["n"], [tuple(e) for e in data["edges"]])
    assert are_isomorphic(rebuilt, P3)
    assert tuple(data["source_class"]) == result.source_class

"""Power-sum machinery: classes, witness counts, evaluation, tree classes."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations
from math import perm
from pathlib import Path

import networkx as nx
import pytest

from oracles import (
    admissible_for_subgraph,
    all_block_bijections,
    brute_direct_eval,
    brute_merge_expansion,
    brute_orbit_sum,
    brute_tree_classes,
    chromatic_polynomial_value,
    enumerate_admissible_classes,
    lambda_support,
    reference_search_order,
    set_placement,
    spanning_class_union,
)

import kneserchrom
from kneserchrom import (
    FIXED_PRIME,
    CapExceededError,
    Lambda,
    PSeries,
    SimpleGraph,
    augment_tree_lambda,
    block_universe,
    canonical_form,
    direct_eval,
    enumerate_graphs,
    enumerate_trees,
    graph_from_form,
    is_admissible,
    is_connected,
    kneser_psum,
    lambda_class,
    lambda_t,
    lambda_t_tilde,
    min_degree_sequence,
    parse_form,
    parse_graph6,
    pseries_eval,
    random_values,
    true_basis,
    verify_tau_isomorphism,
)
from kneserchrom import kneser, trees
from kneserchrom.kneser import (
    AdmissibleWitness,
    PSUM_SUBSET_CAP,
    _component_weights,
    _merge_expansion,
    _merge_images,
    _orbit_sum,
    _placement,
    _psum_k1,
    _psum_subsets,
    _search_order,
)
from kneserchrom.trees import _form_code, _lambda_t_codes

K2 = SimpleGraph.from_edges(2, [(0, 1)])
P3 = SimpleGraph.from_edges(3, [(0, 1), (1, 2)])
STAR3 = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_search_order_matches_reference_bfs():
    # every graph with n <= 7 from the networkx atlas, in its own labelling
    # and in one seeded relabelling
    rng = random.Random(22)
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    for ng in atlas:
        n = ng.number_of_nodes()
        perm = list(range(n))
        rng.shuffle(perm)
        for edges in (list(ng.edges()), [(perm[u], perm[v]) for u, v in ng.edges()]):
            g = SimpleGraph.from_edges(n, edges)
            assert _search_order(g.adjacency()) == reference_search_order(n, g.sorted_edges())


def test_is_admissible_frozen_examples():
    # the 4-symbol path multiset is admissible by P_3 (assign consecutive
    # overlapping blocks along the path) ...
    path_blocks = Lambda.from_blocks(2, [(0, 1), (1, 2), (2, 3)])
    w = is_admissible(path_blocks, P3)
    assert w is not None
    phi = w.mapping()
    assert all(
        set(phi[u]) & set(phi[v]) for u, v in P3.edges
    ) and sorted(phi.values()) == list(path_blocks.blocks)
    # ... but not by the triangle: its middle block intersects only two others
    tri = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert is_admissible(path_blocks, tri) is None
    # a disconnected multiset cannot serve a connected graph
    split = Lambda.from_blocks(2, [(0, 1), (0, 1), (2, 3)])
    assert is_admissible(split, P3) is None


def test_is_admissible_matches_brute_bijections():
    # decision agreement with the exhaustive bijection oracle over every
    # n-block multiset on a small symbol pool, for every 4-vertex graph
    import itertools

    blocks4 = list(itertools.combinations(range(5), 2))
    for g in enumerate_graphs(4):
        for choice in itertools.combinations_with_replacement(blocks4, 4):
            lam = Lambda.from_blocks(2, choice)
            brute = all_block_bijections(g.n, g.sorted_edges(), list(lam.blocks))
            witness = is_admissible(lam, g)
            assert (witness is not None) == bool(brute)
            assert witness is None or witness.realises(lam, g)


def test_is_admissible_twin_groups_match_brute_bijections():
    # (0,2) and (0,3) meet the same blocks whatever else is drawn, (0,1)
    # joins them only while (1,4) is absent: every 5-block multiset over
    # this star-shaped pool, on every connected graph with five vertices
    # and at most five edges
    import itertools

    pool = [(0, 1), (0, 2), (0, 3), (1, 4), (4, 5)]
    sparse = [g for g in enumerate_graphs(5) if is_connected(g) and len(g.edges) <= 5]
    assert len(sparse) == 8
    found = 0
    for g in sparse:
        for choice in itertools.combinations_with_replacement(pool, 5):
            lam = Lambda.from_blocks(2, choice)
            brute = all_block_bijections(g.n, g.sorted_edges(), list(lam.blocks))
            witness = is_admissible(lam, g)
            assert (witness is not None) == bool(brute), (sorted(g.edges), choice)
            if witness is not None:
                assert witness.realises(lam, g)
                found += 1
    assert found > 0


def test_placement_equals_set_based_oracle_on_augmented_trees():
    # the first witness, not only the decision: every tree with n <= 10 in
    # its enumerated labelling and in its reverse
    for n in range(1, 11):
        for t in enumerate_trees(n):
            for h in (t, kneserchrom.relabel(t, list(range(n))[::-1])):
                blocks = augment_tree_lambda(h).lam.blocks
                assert _placement(h, blocks) == set_placement(h, blocks), h


def test_placement_equals_set_based_oracle_on_small_multisets():
    # every n-block multiset of 2-blocks over four symbols and of 1-blocks
    # over three, on every graph with n <= 5 (connected or not)
    pools = (list(combinations(range(4), 2)), [(0,), (1,), (2,)])
    placed = refused = 0
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for pool in pools:
                for blocks in combinations_with_replacement(pool, n):
                    found = _placement(g, blocks)
                    assert found == set_placement(g, blocks), (sorted(g.edges), blocks)
                    placed += found is not None
                    refused += found is None
    assert placed > 0 and refused > 0


def test_witnesses_of_every_tree_up_to_the_cap_are_pinned():
    # sha256 over the witness assignments of the augmented multisets of all
    # 95 trees with n <= 9, in enumeration order, as the set-based search
    # found them before the search moved onto bitmasks
    digest = hashlib.sha256()
    for n in range(1, 10):
        for t in enumerate_trees(n):
            digest.update(repr(is_admissible(augment_tree_lambda(t).lam, t).assignment).encode())
    assert digest.hexdigest() == (
        "4df2353095145da84116f15e1e9b0a1e3cb34090e8c9144be1efb6da0d985556"
    )


def test_double_star_witness():
    # two centres carrying three and four leaves: seven interchangeable
    # pendant blocks, the slowest witness search among the trees with n <= 9
    # before blocks were grouped
    tree = parse_graph6("H???F?^")
    aug = augment_tree_lambda(tree)
    witness = is_admissible(aug.lam, tree)
    assert witness is not None
    assert witness.realises(aug.lam, tree)
    assert verify_tau_isomorphism(tree, aug.lam, witness)


def test_witness_realises_rejects_foreign_blocks():
    aug = augment_tree_lambda(P3)
    good = is_admissible(aug.lam, P3)
    assert good.realises(aug.lam, P3)
    phi = good.mapping()
    root = next(v for v, b in phi.items() if b == (0, 1))
    # (1, 1) is outside the multiset, yet has the same maximum and meets
    # its neighbour's block, so the position map alone still passes
    foreign = AdmissibleWitness(tuple(sorted({**phi, root: (1, 1)}.items())))
    assert verify_tau_isomorphism(P3, aug.lam, foreign)
    assert not foreign.realises(aug.lam, P3)
    missing = AdmissibleWitness(good.assignment[:-1])
    assert not missing.realises(aug.lam, P3)
    doubled = AdmissibleWitness(good.assignment[:-1] + ((0, good.assignment[-1][1]),))
    assert not doubled.realises(aug.lam, P3)
    split = AdmissibleWitness(tuple(sorted({0: (0, 1), 1: (2, 3), 2: (1, 2)}.items())))
    assert not split.realises(aug.lam, P3)


def test_is_admissible_block_count_mismatch():
    with pytest.raises(ValueError):
        is_admissible(Lambda.from_blocks(2, [(0, 1)]), P3)


# ---------------------------------------------------------------------------
# class enumeration and witness counts
# ---------------------------------------------------------------------------


def test_k2_classes_of_one_edge():
    classes = enumerate_admissible_classes(K2, 2)
    assert classes == {("2:[[0,1],[0,1]]",), ("3:[[0,2],[1,2]]",)}


def test_k1_classes_are_single_symbols():
    assert enumerate_admissible_classes(P3, 1) == {("1:[[0],[0],[0]]",)}


def test_class_enumeration_complete_against_brute_force():
    # brute force: every multiset of n blocks over n+1 symbols, keep the
    # admissible ones, compare class sets
    import itertools

    connected = [g for n in range(1, 5) for g in enumerate_graphs(n) if is_connected(g)]
    assert len(connected) == 10
    for g in connected:
        n = g.n
        blocks = list(itertools.combinations(range(n + 1), 2))
        brute: set = set()
        for choice in itertools.combinations_with_replacement(blocks, n):
            lam = Lambda.from_blocks(2, choice)
            if all_block_bijections(n, g.sorted_edges(), list(lam.blocks)):
                brute.add(lambda_class(lam))
        assert brute == set(enumerate_admissible_classes(g, 2))


def test_witness_counts_match_brute_force():
    # W(shape, class) counts bijections onto the canonical representative
    connected = [g for n in range(1, 6) for g in enumerate_graphs(n) if is_connected(g)]
    for g in connected:
        weights = _component_weights(canonical_form(g), 2)
        for cls, w in weights.items():
            _, pairs = parse_form(cls)
            brute = all_block_bijections(g.n, g.sorted_edges(), pairs)
            assert w == len(brute) > 0, (canonical_form(g), cls)


def test_frozen_witness_counts():
    weights = _component_weights(canonical_form(P3), 2)
    by_shape = {}
    for cls, w in weights.items():
        sym, pairs = parse_form(cls)
        if sym == 4 and len(set(map(tuple, pairs))) == 3:
            tree = graph_from_form(cls)
            by_shape[tuple(sorted(tree.degrees()))] = w
    # the path representative admits 2 bijections, the star 6
    assert by_shape[(1, 1, 2, 2)] == 2
    assert by_shape[(1, 1, 1, 3)] == 6


def test_admissible_for_subgraph():
    empty = admissible_for_subgraph(P3, [], 2)
    assert empty == {("2:[[0,1]]",) * 3}
    one = admissible_for_subgraph(P3, [(0, 1)], 2)
    assert one == {
        ("2:[[0,1],[0,1]]", "2:[[0,1]]"),
        ("2:[[0,1]]", "3:[[0,2],[1,2]]"),
    }
    with pytest.raises(ValueError):
        admissible_for_subgraph(P3, [(0, 2)], 2)


# ---------------------------------------------------------------------------
# the series
# ---------------------------------------------------------------------------


def test_k2_series_of_one_edge_frozen():
    series = kneser_psum(K2, 2)
    assert series.terms == {
        ("2:[[0,1]]", "2:[[0,1]]"): 1,
        ("2:[[0,1],[0,1]]",): -1,
        ("3:[[0,2],[1,2]]",): -2,
    }
    ones = {b: 1 for b in block_universe(4, 2)}
    assert pseries_eval(series, 4, ones) == 6
    assert direct_eval(K2, 2, 4, ones) == 6


def test_k1_series_of_one_edge_is_p11_minus_p2():
    series = kneser_psum(K2, 1)
    assert series.terms == {
        ("1:[[0]]", "1:[[0]]"): 1,
        ("1:[[0],[0]]",): -1,
    }


def test_indicator_vs_witness_on_p3_tree_classes():
    ind = kneser_psum(P3, 2, coeffs="indicator")
    wit = kneser_psum(P3, 2, coeffs="witness")
    tcls = lambda_t(P3)
    assert len(tcls) == 2
    assert {ind.terms[c] for c in tcls} == {1}
    assert {wit.terms[c] for c in tcls} == {2, 6}


def test_direct_eval_against_brute_oracle():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            for k in (1, 2):
                for m in range(k, 5):
                    vals = random_values(k, m, seed=3)
                    brute = brute_direct_eval(
                        g.n, g.sorted_edges(), k, m, vals, FIXED_PRIME
                    )
                    assert direct_eval(g, k, m, vals) == brute


def test_series_evaluation_equals_direct():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            for k in (1, 2):
                series = kneser_psum(g, k)
                for m in range(k, 6):
                    vals = random_values(k, m, seed=11)
                    assert pseries_eval(series, m, vals) == direct_eval(g, k, m, vals)


def test_evaluation_rejects_missing_blocks():
    series = kneser_psum(P3, 2)
    vals = random_values(2, 4, seed=1)
    del vals[(2, 3)]
    for evaluate in (pseries_eval, lambda s, m, v: direct_eval(P3, 2, m, v)):
        with pytest.raises(ValueError, match=r"value map is missing blocks, e\.g\. \(2, 3\)"):
            evaluate(series, 4, vals)
    # each call returns a fresh map, so the deletion did not reach later callers
    assert random_values(2, 4, seed=1).keys() == set(block_universe(4, 2))


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, 3, True), "seed must be an integer (got True)"),
        ((2, 3, 1.0), "seed must be an integer (got 1.0)"),
        ((2, 3, "1"), "seed must be an integer (got '1')"),
        ((2, 1, 1), "need an integer m >= k (got m=1)"),
        ((2, 3.0, 1), "need an integer m >= k (got m=3.0)"),
        ((1, True, 1), "need an integer m >= k (got m=True)"),
        ((True, 3, 1), "only k = 1 and k = 2 are supported"),
    ],
    ids=["seed-bool", "seed-float", "seed-str", "m-below-k", "m-float", "m-bool", "k-bool"],
)
def test_random_values_refuses_bad_draws(args, message):
    with pytest.raises(ValueError) as exc:
        random_values(*args)
    assert str(exc.value) == message
    # a refused draw leaves nothing behind: seed 1 is drawn as in a fresh process
    rng = random.Random("1:2:3")
    fresh = [rng.randrange(1, FIXED_PRIME) for _ in block_universe(3, 2)]
    assert random_values(2, 3, 1) == dict(zip(block_universe(3, 2), fresh))


@pytest.mark.parametrize("bad", [1.5, True, "1"], ids=["float", "bool", "str"])
def test_evaluation_rejects_non_integer_values(bad):
    series = kneser_psum(P3, 2)
    vals = random_values(2, 5, seed=1)
    vals[(2, 4)] = bad
    for evaluate in (pseries_eval, lambda s, m, v: direct_eval(P3, 2, m, v)):
        with pytest.raises(ValueError) as exc:
            evaluate(series, 5, vals)
        assert str(exc.value) == f"value map has non-integer values, e.g. (2, 4): {bad!r}"


def test_orbit_sum_kernel_matches_brute_oracle():
    forms = {
        comp
        for n in range(1, 6)
        for g in enumerate_graphs(n)
        for k in (1, 2)
        for cls in kneser_psum(g, k).terms
        for comp in cls
    }
    for form in sorted(forms):
        w, blocks = parse_form(form)
        k = len(blocks[0])
        for m in range(2, 7):
            for seed in (5, 6):
                vals = random_values(k, m, seed)
                expected = brute_orbit_sum(w, blocks, m, vals) % FIXED_PRIME
                key = tuple(vals[b] for b in block_universe(m, k))
                assert _orbit_sum(form, m, key) == expected, (form, m, seed)

    # two value maps with the same m are cached apart: neither result leaks
    form = "4:[[0,1],[1,2],[1,3]]"
    w, blocks = parse_form(form)
    maps = [random_values(2, 5, seed) for seed in (7, 8)]
    keys = [tuple(v[b] for b in block_universe(5, 2)) for v in maps]
    first = [_orbit_sum(form, 5, key) for key in keys]
    hits = _orbit_sum.cache_info().hits
    again = [_orbit_sum(form, 5, key) for key in keys]
    assert _orbit_sum.cache_info().hits == hits + 2
    assert first[0] != first[1]
    assert again == first == [brute_orbit_sum(w, blocks, 5, v) % FIXED_PRIME for v in maps]


def test_orbit_sum_kernel_past_one_piece():
    # 7 and 8 symbols into 7 and 8 take 5040 to 40320 labellings, streamed
    # in pieces of TABLE_PIECE; the first and last component of each size
    p7 = SimpleGraph.from_edges(7, [(i, i + 1) for i in range(6)])
    comps = sorted({comp for cls in kneser_psum(p7, 2).terms for comp in cls})
    for w in (7, 8):
        sized = [comp for comp in comps if parse_form(comp)[0] == w]
        for form in (sized[0], sized[-1]):
            _, blocks = parse_form(form)
            for m in (7, 8):
                vals = random_values(2, m, seed=9)
                key = tuple(vals[b] for b in block_universe(m, 2))
                expected = brute_orbit_sum(w, blocks, m, vals) % FIXED_PRIME
                assert _orbit_sum(form, m, key) == expected, (form, m)


def test_orbit_sum_memory_stays_bounded_past_the_table_cap():
    # the path on 8 symbols at m = 9: 362 880 labellings, about 40 MB held
    # whole; streamed, one piece of 720 and its tables stays under 1 MB
    form = "8:[[0,2],[1,3],[2,4],[3,5],[4,6],[5,7],[6,7]]"
    aut = kneser._component_blocks(form)[2]
    ones = tuple(1 for _ in block_universe(9, 2))
    tracemalloc.start()
    try:
        value = _orbit_sum(form, 9, ones)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == perm(9, 8) // aut
    assert peak < 1 << 20, peak


def test_class_values_are_cached_per_value_map():
    series = kneser_psum(STAR3, 2)
    maps = [random_values(2, 5, seed) for seed in (7, 8)]
    kneser._class_value.cache_clear()
    first = [pseries_eval(series, 5, v) for v in maps]
    assert kneser._class_value.cache_info().currsize == 2 * len(series.terms)
    again = [pseries_eval(series, 5, v) for v in maps]
    assert kneser._class_value.cache_info().hits == 2 * len(series.terms)
    assert first[0] != first[1]
    assert again == first == [direct_eval(STAR3, 2, 5, v) for v in maps]


def test_k1_partition_route_equals_subset_route():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            part = _psum_k1(g)
            via_subsets_w = _psum_subsets(g, 1, witness=True)
            via_subsets_i = _psum_subsets(g, 1, witness=False)
            assert part == via_subsets_w == via_subsets_i


def test_k1_all_ones_counts_proper_colorings():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            series = kneser_psum(g, 1)
            for m in range(1, 6):
                ones = {b: 1 for b in block_universe(m, 1)}
                expected = chromatic_polynomial_value(g.n, g.sorted_edges(), m) % FIXED_PRIME
                assert pseries_eval(series, m, ones) == expected


def test_k1_series_at_the_vertex_cap(monkeypatch):
    k7 = SimpleGraph.from_edges(7, [(a, b) for a in range(7) for b in range(a + 1, 7)])
    c7 = SimpleGraph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
    p7 = SimpleGraph.from_edges(7, [(i, i + 1) for i in range(6)])
    closed_forms = [
        (k7, lambda m: perm(m, 7)),
        (c7, lambda m: (m - 1) ** 7 - (m - 1)),
        (p7, lambda m: m * (m - 1) ** 6),
    ]
    for g, chromatic in closed_forms:
        series = kneser_psum(g, 1)
        for m in range(1, 9):
            ones = {b: 1 for b in block_universe(m, 1)}
            assert pseries_eval(series, m, ones) == chromatic(m) % FIXED_PRIME

    # the k = 1 route itself runs no canonical search
    def refuse(g):
        raise AssertionError("canonical_form called")

    expected = kneser_psum(k7, 1).terms
    monkeypatch.setattr(kneser, "canonical_form", refuse)
    assert _psum_k1(k7) == expected


def test_k1_series_names_no_graph(monkeypatch):
    # kneser_psum computes k = 1 terms on the labelling it is given, with no
    # canonical search; the sha256 over the sorted terms of K7, C7 and P7 was
    # recorded from the earlier route that looked the series up by form
    def refuse(g):
        raise AssertionError("canonical_form called")

    monkeypatch.setattr(kneser, "canonical_form", refuse)
    digest = hashlib.sha256()
    for edges in (
        [(a, b) for a in range(7) for b in range(a + 1, 7)],
        [(i, (i + 1) % 7) for i in range(7)],
        [(i, i + 1) for i in range(6)],
    ):
        terms = kneser_psum(SimpleGraph.from_edges(7, edges), 1).terms
        digest.update(repr(sorted(terms.items())).encode())
    assert digest.hexdigest() == (
        "9b542314cc078ff566cf9ddad3cd8d6b206f6f134314104c352e974ddf51f9a6"
    )


def test_large_class_vanishes_below_symbol_count():
    series = kneser_psum(K2, 2)
    # at m = 2 only one block exists, so no proper assignment of the edge
    assert pseries_eval(series, 2, {b: 1 for b in block_universe(2, 2)}) == 0
    assert direct_eval(K2, 2, 2, {b: 1 for b in block_universe(2, 2)}) == 0


def test_invariant_check_survives_optimised_mode():
    # a wrong automorphism count must still be caught under python -O,
    # which strips assert statements
    script = textwrap.dedent(
        """
        from kneserchrom import block_universe, kneser

        real = kneser._component_blocks
        kneser._component_blocks = lambda form: real(form)[:2] + (5,)
        ones = tuple(1 for _ in block_universe(4, 2))
        path = "3:[[0,2],[1,2]]"
        for call in (
            lambda: kneser._orbit_sum("3:[[0,1],[1,2]]", 4, ones),
            lambda: kneser._merge_expansion((path,), path),
            lambda: kneser._component_weights("2:[[0,1]]", 2),
        ):
            try:
                call()
            except RuntimeError as exc:
                print(exc)
        """
    )
    assert _optimised_stdout(script) == [
        "orbit sum not divisible by automorphism count",
        "merge coefficient not divisible by automorphism counts",
        "class count times automorphism count is odd",
    ]


def _optimised_stdout(script: str) -> list[str]:
    """The stdout lines of ``script`` run under ``python -O`` (no assert
    statements) with this package importable; it must exit 0."""
    env = dict(os.environ)
    package_root = str(Path(kneserchrom.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_repeated_edge_is_refused_under_optimised_mode():
    # a double edge once became the edgeless graph's graph6 'B?' under -O
    # (a wrong cache key), and kneser_psum failed on an attribute
    script = textwrap.dedent(
        """
        from kneserchrom import Multigraph, canonical_graph6, kneser_psum

        double = Multigraph.from_pairs(3, [(0, 1), (0, 1), (1, 2)])
        for call in (canonical_graph6, lambda g: kneser_psum(g, 2)):
            try:
                print(call(double))
            except ValueError as exc:
                print(exc)
        # a multigraph without a repeated edge is a simple graph
        single = Multigraph.from_pairs(3, [(0, 1), (1, 2)])
        print(canonical_graph6(single), kneser_psum(single, 2) == kneser_psum(single.simple(), 2))
        """
    )
    assert _optimised_stdout(script) == [
        "canonical graph6 needs a simple graph (got a repeated edge)",
        "power-sum expansion needs a simple graph (got a repeated edge)",
        "BW True",
    ]


def test_psum_isomorphism_invariance():
    from kneserchrom import relabel

    g = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    h = relabel(g, [4, 2, 0, 3, 1])
    for k in (1, 2):
        assert kneser_psum(g, k).terms == kneser_psum(h, k).terms


def test_psum_caps_and_validation():
    big = SimpleGraph.from_edges(8, [(i, i + 1) for i in range(7)])
    with pytest.raises(CapExceededError):
        kneser_psum(big, 2)
    with pytest.raises(ValueError):
        kneser_psum(K2, 3)
    with pytest.raises(ValueError):
        kneser_psum(K2, 2, coeffs="other")


def test_subset_budget_refuses_before_any_subset_loop(monkeypatch):
    # K7 is inside PSUM_VERTEX_CAP, but its 2^21 spanning subgraphs do not
    # finish for k = 2; K6's 2^15 are the most the budget lets through
    def refuse(*args, **kwargs):
        raise AssertionError("the spanning-subgraph loop was entered")

    monkeypatch.setattr(kneser, "_psum_subsets", refuse)
    assert PSUM_SUBSET_CAP == 1 << 15
    k7 = SimpleGraph.from_edges(7, [(a, b) for a in range(7) for b in range(a + 1, 7)])
    for coeffs in ("witness", "indicator"):
        with pytest.raises(CapExceededError, match="spanning subgraphs"):
            kneser_psum(k7, 2, coeffs=coeffs)
        with pytest.raises(CapExceededError, match="spanning subgraphs"):
            lambda_support(k7, 2, coeffs=coeffs)
    # k = 1 takes the partition route, which the budget does not cover
    assert kneser_psum(k7, 1).terms
    # K6 passes the check and reaches the subset route
    monkeypatch.setattr(kneser, "_psum_subsets", lambda g, k, witness: {})
    k6 = SimpleGraph.from_edges(6, [(a, b) for a in range(6) for b in range(a + 1, 6)])
    assert kneser_psum(k6, 2).terms == {}


def test_pseries_json_round_trip():
    series = kneser_psum(P3, 2)
    again = PSeries.from_json(series.to_json())
    assert (again.n, again.k, again.coeffs) == (series.n, series.k, series.coeffs)
    assert again.terms == series.terms
    with pytest.raises(ValueError):
        PSeries.from_json("{not json")
    with pytest.raises(ValueError):
        PSeries.from_json('{"n": 2, "k": 3, "terms": []}')
    with pytest.raises(ValueError):
        PSeries.from_json('{"n": 2, "k": 2, "terms": [{"class": ["x"], "coeff": 1}]}')


# ---------------------------------------------------------------------------
# the disjoint-support basis
# ---------------------------------------------------------------------------


def test_true_basis_of_one_edge():
    # X(K_2) counts proper assignments: two per unordered disjoint pair
    assert true_basis(kneser_psum(K2, 2)) == {("2:[[0,1]]", "2:[[0,1]]"): 2}


def test_true_basis_matches_proper_map_census():
    # independent oracle: enumerate every proper block map over 2n symbols
    # and count, per class, the maps landing on one fixed representative
    import itertools
    from collections import Counter

    for n in range(1, 4):
        for g in enumerate_graphs(n):
            for k in (1, 2):
                blocks = list(itertools.combinations(range(1, 2 * n + 1), k))
                census: dict = {}
                for phi in itertools.product(blocks, repeat=n):
                    if any(set(phi[u]) & set(phi[v]) for u, v in g.edges):
                        continue
                    cls = lambda_class(Lambda.from_blocks(k, phi))
                    census.setdefault(cls, Counter())[tuple(sorted(phi))] += 1
                expected = {}
                for cls, counter in census.items():
                    counts = set(counter.values())
                    assert len(counts) == 1
                    expected[cls] = counts.pop()
                assert true_basis(kneser_psum(g, k)) == expected


def _small_series():
    """The series of every graph on n vertices, for each n <= 5, k and
    normalisation."""
    for n in range(1, 6):
        for k in (1, 2):
            for coeffs in ("witness", "indicator"):
                yield [kneser_psum(g, k, coeffs=coeffs) for g in enumerate_graphs(n)]


def _symbol_count(pclass) -> int:
    return sum(parse_form(comp)[0] for comp in pclass)


@pytest.fixture(scope="module")
def merge_pairs():
    """Every (t_class, comp) pair true_basis expands for a graph with n <= 5."""
    pairs = set()

    def recording(t_class, comp):
        pairs.add((t_class, comp))
        return _merge_expansion(t_class, comp)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kneser, "_merge_expansion", recording)
        for series in _small_series():
            for s in series:
                true_basis(s)
    assert len(pairs) == 147
    return sorted(pairs)


def test_merge_expansion_equals_split_count(merge_pairs):
    for t_class, comp in merge_pairs:
        assert dict(_merge_expansion(t_class, comp)) == brute_merge_expansion(t_class, comp)


def test_merge_expansion_is_triangular(merge_pairs):
    # the one class on w_T + w_C symbols is the disjoint class, with a
    # positive coefficient, and no class spreads over more symbols
    for t_class, comp in merge_pairs:
        top = _symbol_count(t_class) + _symbol_count((comp,))
        expansion = dict(_merge_expansion(t_class, comp))
        widest = [cls for cls in expansion if _symbol_count(cls) >= top]
        assert widest == [tuple(sorted(t_class + (comp,)))]
        assert expansion[widest[0]] > 0


def test_series_terms_are_in_normal_form():
    # collision search compares terms, which is exact only for sorted class
    # tuples and no stored zero
    for series in _small_series():
        for s in series:
            for cls, coeff in s.terms.items():
                assert cls == tuple(sorted(cls))
                assert coeff != 0


def test_true_basis_equal_exactly_when_terms_equal():
    pairs = equal = 0
    for series in _small_series():
        vectors = [true_basis(s) for s in series]
        for i, j in combinations(range(len(series)), 2):
            same = series[i].terms == series[j].terms
            assert (vectors[i] == vectors[j]) == same
            pairs += 1
            equal += same
    assert pairs == 4 * (0 + 1 + 6 + 55 + 561) == 2492
    # the classical k = 1 pair on five vertices, in both normalisations
    assert equal == 2


def test_merge_images_are_the_kept_permutations():
    # the direct enumeration yields exactly the injective images whose
    # fresh symbols (those >= w_t) come in increasing order, each once
    def fresh_in_order(image, w_t):
        fresh = [s for s in image if s >= w_t]
        return fresh == list(range(w_t, w_t + len(fresh)))

    for w_t in range(7):
        for w_c in range(1, 6):
            kept = Counter(
                image
                for image in permutations(range(w_t + w_c), w_c)
                if fresh_in_order(image, w_t)
            )
            assert Counter(_merge_images(w_t, w_c)) == kept


def test_representation_collision_pair_differs_in_true_basis():
    # these two graphs agree under every value map on <= 6 symbols, yet
    # their invariants differ: the difference sits in disjoint-support
    # classes on 7..9 symbols
    from kneserchrom import parse_graph6

    a = parse_graph6("DR[")
    b = parse_graph6("Dr[")
    sa, sb = kneser_psum(a, 2), kneser_psum(b, 2)
    for m in (4, 5, 6):
        vals = random_values(2, m, seed=23)
        assert pseries_eval(sa, m, vals) == pseries_eval(sb, m, vals)
    ta, tb = true_basis(sa), true_basis(sb)
    assert ta != tb
    diff = {c for c in set(ta) | set(tb) if ta.get(c) != tb.get(c)}
    spans = {_symbol_count(cls) for cls in diff}
    assert min(spans) == 7
    vals7 = random_values(2, 7, seed=23)
    assert direct_eval(a, 2, 7, vals7) != direct_eval(b, 2, 7, vals7)


# ---------------------------------------------------------------------------
# support and tree classes
# ---------------------------------------------------------------------------


def test_lambda_support_k1_never_cancels():
    # lambda_support reads the k = 1 union off the signed support, so the
    # union is taken independently here, over every spanning subgraph
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            report = lambda_support(g, 1)
            assert not report.cancelled
            assert report.signed == report.union == spanning_class_union(g, 1)


def test_lambda_support_k2_indicator_cancellation_exists():
    # observed: the 5-clique's indicator expansion cancels some classes,
    # while the witness expansion of every graph with n <= 5 does not
    k5 = SimpleGraph.from_edges(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    report = lambda_support(k5, 2, coeffs="indicator")
    assert report.cancelled
    assert report.signed | report.cancelled == report.union
    witness = lambda_support(k5, 2, coeffs="witness")
    assert not witness.cancelled


def test_unknown_normalisation_is_refused():
    for compute in (kneser_psum, lambda_support):
        with pytest.raises(ValueError, match="unknown coefficient normalisation 'witnes'"):
            compute(P3, 2, coeffs="witnes")


def test_lambda_t_of_small_trees():
    assert lambda_t(K2, 1) == frozenset()
    star_classes = lambda_t(STAR3)
    degs = {tuple(sorted(graph_from_form(c[0]).degrees())) for c in star_classes}
    assert degs == {(1, 1, 1, 2, 3), (1, 1, 1, 1, 4)}
    tilde, profile = lambda_t_tilde(STAR3)
    assert profile == (1, 2, 3, 1, 1)
    assert len(tilde) == 1
    chair = next(iter(tilde))
    assert tuple(sorted(graph_from_form(chair[0]).degrees())) == (1, 1, 1, 2, 3)


def test_lambda_t_counts_against_series_support():
    # the tree fast path must match filtering the full series support
    for n in range(2, 7):
        for t in enumerate_trees(n):
            series = kneser_psum(t, 2)
            via_series = {
                cls
                for cls in series.terms
                if len(cls) == 1
                and parse_form(cls[0])[0] == n + 1
                and _form_code(cls[0]) is not None
            }
            assert lambda_t(t) == via_series


def test_tree_class_above_the_vertex_cap_is_refused():
    path15 = "15:" + json.dumps([[i, i + 1] for i in range(14)], separators=(",", ":"))
    with pytest.raises(CapExceededError) as exc:
        _form_code(path15)
    assert str(exc.value) == "tree classes capped at 14 vertices (got 15)"


def test_lambda_t_of_every_tree_up_to_the_cap():
    # sha256 over the sorted tree classes of every tree with n <= 9, in
    # enumeration order (2694 classes); the digest was recorded from the
    # earlier route that tested every free tree on n + 1 vertices for
    # admissibility, so it pins the dynamic programme over the tree code to it
    # the second digest, over their sorted centre-rooted codes, was recorded
    # when the codes were still re-rooted by decoding and peeling leaves
    digest, codes = hashlib.sha256(), hashlib.sha256()
    for n in range(1, 10):
        for t in enumerate_trees(n):
            digest.update(repr(sorted(lambda_t(t))).encode())
            codes.update(repr(sorted(_lambda_t_codes(t))).encode())
    assert digest.hexdigest() == (
        "78c0ae7cf51c9c38504b02505315d0076d1d8800d3ea6882d15d747e92f39cc1"
    )
    assert codes.hexdigest() == (
        "1be24555e2a52e260a7d5918f02e2746b1be071cbe535b75349b735adef9e7e6"
    )
    path10 = SimpleGraph.from_edges(10, [(i, i + 1) for i in range(9)])
    with pytest.raises(CapExceededError):
        lambda_t(path10)


def test_lambda_t_refuses_a_long_path_before_building_its_code(monkeypatch):
    # a 3000-vertex path once overflowed the stack building its code
    path = SimpleGraph.from_edges(3000, [(i, i + 1) for i in range(2999)])
    message = r"^tree-class extraction capped at 9 vertices \(got 3000\)$"
    for call in (lambda_t, lambda_t_tilde):
        with pytest.raises(CapExceededError, match=message):
            call(path)

    def build(*args):
        raise AssertionError("the code was built before the cap check")

    monkeypatch.setattr(trees, "_tree_code", build)
    for call in (lambda_t, lambda_t_tilde):
        with pytest.raises(CapExceededError, match=message):
            call(path)


def test_k1_series_of_every_graph_up_to_six_vertices():
    # sha256 over the sorted k = 1 terms of all 208 graphs with n <= 6, in
    # enumeration order; the digest was recorded from the earlier route that
    # ran a deletion-contraction for T(1, 0) inside a set-partition loop
    digest = hashlib.sha256()
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            digest.update(repr(sorted(kneser_psum(g, 1).terms.items())).encode())
    assert digest.hexdigest() == (
        "61f748361b356e6f7ecacd408615d68935b593c64ef26c98f1583013d2dfd112"
    )


def test_lambda_t_equals_breadth_first_fills():
    # the oracle builds all 2^(n-1) fills from vertex 0, the dynamic
    # programme works from the centre, so this also checks root independence
    for n in range(1, 9):
        for t in enumerate_trees(n):
            assert lambda_t(t) == brute_tree_classes(n, t.edges)


def test_lambda_t_of_a_cycle():
    # non-trees carry tree classes too (so the classes alone do not
    # certify treeness): the 4-cycle's spanning paths contribute path and
    # chair shapes, and the full edge set contributes the star
    c4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    classes = lambda_t(c4)
    degs = {tuple(sorted(graph_from_form(c[0]).degrees())) for c in classes}
    assert degs == {(1, 1, 2, 2, 2), (1, 1, 1, 2, 3), (1, 1, 1, 1, 4)}


def test_lambda_t_tilde_of_non_trees():
    # a non-tree's tree classes are read off its series: the 4-cycle's
    # least profile is the path's, and 2K2 has no tree class at all
    c4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    path = frozenset({("5:[[0,2],[1,3],[2,4],[3,4]]",)})
    assert lambda_t_tilde(c4) == (path, (1, 2, 2, 2, 1))
    with pytest.raises(ValueError, match="no tree classes"):
        lambda_t_tilde(SimpleGraph.from_edges(4, [(0, 1), (2, 3)]))


def networkx_reads_tree(form: str, symbols: int) -> bool:
    """Whether networkx reads a class form as a tree on ``symbols`` vertices
    (repeated pairs are parallel edges, so they are never a tree)."""
    head, _, body = form.partition(":")
    h = nx.MultiGraph()
    h.add_nodes_from(range(int(head)))
    h.add_edges_from(json.loads(body))
    return h.number_of_nodes() == symbols and nx.is_tree(h)


def small_graphs() -> list[SimpleGraph]:
    """The 52 graphs with n <= 5."""
    return [g for n in range(1, 6) for g in enumerate_graphs(n)]


def test_lambda_t_of_every_small_graph_filters_its_series():
    # trees take the code route, other graphs the series route; both must
    # equal filtering the series by an independent tree test
    graphs = small_graphs()
    assert len(graphs) == 52
    for g in graphs:
        via_series = {
            cls
            for cls in kneser_psum(g, 2).terms
            if len(cls) == 1 and networkx_reads_tree(cls[0], g.n + 1)
        }
        assert lambda_t(g) == via_series, canonical_form(g)


def test_lambda_t_tilde_of_every_small_graph_keeps_least_profiles():
    with_classes = 0
    for g in small_graphs():
        classes = lambda_t(g)
        if not classes:
            with pytest.raises(ValueError, match="no tree classes"):
                lambda_t_tilde(g)
            continue
        with_classes += 1
        profiles = {cls: min_degree_sequence(graph_from_form(cls[0])) for cls in classes}
        best = min(profiles.values())
        least = frozenset(cls for cls, p in profiles.items() if p == best)
        assert lambda_t_tilde(g) == (least, best), canonical_form(g)
    # some non-trees have tree classes too, so the series route is exercised
    assert with_classes > sum(len(enumerate_trees(n)) for n in range(1, 6))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: kneser_psum(SimpleGraph(0, frozenset()), 2), "need at least one vertex"),
        (lambda: PSeries.from_json("[1]"), "series payload must be a JSON object"),
        (lambda: direct_eval(P3, 2, 1, {}), "need m >= k"),
        (lambda: pseries_eval(kneser_psum(P3, 2), 1, {}), "need m >= k"),
        (lambda: direct_eval(P3, 1, 4.0, {}), "m must be an integer (got 4.0)"),
        (lambda: pseries_eval(kneser_psum(P3, 1), True, {}), "m must be an integer (got True)"),
    ],
    ids=[
        "psum-empty",
        "payload-not-object",
        "direct-eval-m-below-k",
        "pseries-eval-m-below-k",
        "direct-eval-m-float",
        "pseries-eval-m-bool",
    ],
)
def test_series_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_augment_tree_lambda_small():
    aug = augment_tree_lambda(P3)
    assert aug.lam.blocks == ((0, 1), (1, 2), (2, 3))
    res = is_admissible(aug.lam, P3)
    assert res is not None
    # augmenting K_1 gives the single pendant block {0, 1}
    one = SimpleGraph.from_edges(1, [])
    assert augment_tree_lambda(one).lam.blocks == ((0, 1),)

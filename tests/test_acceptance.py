"""Acceptance gate: nine end-to-end checks, one printed PASS/FAIL line each.

Run with plain ``pytest tests/test_acceptance.py``; the per-criterion lines
print unconditionally (outside pytest's capture) so the gate's outcome is
visible in any run.  Each check recomputes everything it needs from scratch
through the public API and compares against independent oracles or frozen
expected values.
"""

from __future__ import annotations

import time

from oracles import all_block_bijections, brute_min_profile, chromatic_polynomial_value

from kneserchrom import (
    SimpleGraph,
    are_isomorphic,
    augment_tree_lambda,
    block_universe,
    canonical_form,
    direct_eval,
    enumerate_graphs,
    enumerate_trees,
    graph_from_form,
    induced_subgraph,
    is_admissible,
    kneser_psum,
    lambda_t,
    lambda_t_tilde,
    min_degree_sequence,
    min_rooted_degree_sequence,
    minimum_leaves,
    position_tree,
    pseries_eval,
    random_values,
    verify_tau_isomorphism,
    verify_trees,
)
from kneserchrom.kneser import FIXED_PRIME, AdmissibleWitness

# 12-vertex worked example: a tree with one degree-4 branch vertex whose
# minimum rooted degree sequence is known exactly
TREE_A = SimpleGraph.from_edges(
    12,
    [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7),
     (3, 8), (3, 9), (7, 10), (7, 11)],
)
TREE_A_PROFILE = (1, 3, 1, 3, 1, 2, 4, 1, 1, 3, 1, 1)

# the same tree relabelled so that 0, 1, 2, ... is a minimal rooted order;
# its block augmentation is known exactly
TREE_B = SimpleGraph.from_edges(
    12,
    [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5), (5, 6), (6, 7),
     (6, 8), (6, 9), (9, 10), (9, 11)],
)
TREE_B_BLOCKS = (
    (0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (4, 6),
    (6, 7), (7, 8), (7, 9), (7, 10), (10, 11), (10, 12),
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion-{num}] {'PASS' if ok else 'FAIL'}: {detail}")


def _run(capsys, num: int, body) -> None:
    t0 = time.perf_counter()
    try:
        detail = body()
        ok = True
    except AssertionError as exc:
        ok, detail = False, str(exc) or "assertion failed"
    except Exception as exc:  # pragma: no cover - only on real breakage
        ok, detail = False, f"exception: {exc!r}"
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(num, ok, f"{detail} [{elapsed:.1f}s]")
    assert ok, detail


def test_criterion_1_round_trip_and_injectivity(capsys):
    def body():
        report = verify_trees(9)
        s = report["summary"]
        assert s["trees"] == 95, f"expected 95 free trees with n <= 9, saw {s['trees']}"
        assert s["failures"] == 0, f"{s['failures']} reconstruction failures"
        assert s["injective"], f"class sets collide: {s['duplicate_class_sets']}"
        assert s["all_pass"]
        return "all 95 trees n<=9 reconstruct to themselves; class sets injective"

    _run(capsys, 1, body)


def test_criterion_2_worked_examples(capsys):
    def body():
        profile = min_degree_sequence(TREE_A)
        assert profile == TREE_A_PROFILE, f"profile {profile} != {TREE_A_PROFILE}"

        aug = augment_tree_lambda(TREE_B)
        assert aug.lam.blocks == TREE_B_BLOCKS, f"blocks {aug.lam.blocks}"
        phi = aug.mapping()
        assert phi[0] == (0, 1), f"vertex 0 got {phi[0]}"
        assert phi[5] == (4, 6), f"vertex 5 got {phi[5]}"
        assert phi[9] == (7, 10), f"vertex 9 got {phi[9]}"
        assert are_isomorphic(position_tree(aug.lam), TREE_B)
        assert are_isomorphic(TREE_A, TREE_B)
        return "12-vertex profile and block augmentation match the worked examples"

    _run(capsys, 2, body)


def test_criterion_3_series_equals_direct_evaluation(capsys):
    def body():
        checks = 0
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                for k in (1, 2):
                    series = kneser_psum(g, k)
                    for m in range(2, 7):
                        for seed in (101, 102, 103, 104, 105):
                            vals = random_values(k, m, seed=seed)
                            lhs = pseries_eval(series, m, vals)
                            rhs = direct_eval(g, k, m, vals)
                            assert lhs == rhs, (
                                f"{canonical_form(g)} k={k} m={m} seed={seed}:"
                                f" series {lhs} != direct {rhs}"
                            )
                            checks += 1
        return f"series == direct evaluation in {checks} checks (52 graphs, k=1,2, m=2..6)"

    _run(capsys, 3, body)


def test_criterion_4_proper_coloring_specialisation(capsys):
    def body():
        checks = 0
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                for m in range(1, 7):
                    ones = {b: 1 for b in block_universe(m, 1)}
                    val = direct_eval(g, 1, m, ones)
                    chi = chromatic_polynomial_value(g.n, g.sorted_edges(), m)
                    assert val == chi % FIXED_PRIME, (
                        f"{canonical_form(g)} m={m}: {val} != chi = {chi}"
                    )
                    checks += 1
        return f"k=1 at all-ones equals deletion-contraction chi in {checks} checks"

    _run(capsys, 4, body)


def test_criterion_5_minimal_class_profile_formula(capsys):
    def body():
        trees = 0
        for n in range(1, 10):
            for t in enumerate_trees(n):
                _, got = lambda_t_tilde(t)
                r = min_degree_sequence(t)
                want = (1, 1) if n == 1 else (1, 2) + r[1:]
                assert got == want, f"{canonical_form(t)}: {got} != {want}"
                trees += 1
        return f"minimal tree-class profile equals (1, 2, r_2..r_n) for all {trees} trees n<=9"

    _run(capsys, 5, body)


def test_criterion_6_tree_class_coefficients(capsys):
    def body():
        classes = 0
        for n in range(1, 8):
            sign = (-1) ** (n - 1)
            for t in enumerate_trees(n):
                series = kneser_psum(t, 2, coeffs="indicator")
                tcls = lambda_t(t)
                assert tcls, f"{canonical_form(t)} has no tree classes"
                for cls in tcls:
                    assert series.terms.get(cls) == sign, (
                        f"{canonical_form(t)} class {cls}:"
                        f" {series.terms.get(cls)} != {sign}"
                    )
                classes += len(tcls)
        return f"every tree class carries coefficient (-1)^(n-1); {classes} classes, trees n<=7"

    _run(capsys, 6, body)


def test_criterion_7_minimum_leaf_uniqueness(capsys):
    def body():
        checked = 0
        for n in range(1, 10):
            for t in enumerate_trees(n):
                tilde, _ = lambda_t_tilde(t)
                for cls in tilde:
                    sym = graph_from_form(cls[0])
                    leaves = minimum_leaves(sym)
                    if all(d <= 2 for d in sym.degrees()):
                        assert len(leaves) == 2, (
                            f"path {cls}: {len(leaves)} minimum leaves"
                        )
                        a = induced_subgraph(sym, [v for v in range(sym.n) if v != leaves[0]])
                        b = induced_subgraph(sym, [v for v in range(sym.n) if v != leaves[1]])
                        assert are_isomorphic(a, b), f"path {cls}: deletions differ"
                    else:
                        assert len(leaves) == 1, (
                            f"{cls}: minimum leaf not unique ({leaves})"
                        )
                    checked += 1
        return f"unique minimum leaf (or path with twin deletions) in all {checked} minimal classes, trees n<=9"

    _run(capsys, 7, body)


def test_criterion_8_position_map_witnesses(capsys):
    def body():
        trees = 0
        maps = 0
        for n in range(1, 7):
            for t in enumerate_trees(n):
                aug = augment_tree_lambda(t)
                bijections = all_block_bijections(
                    t.n, t.sorted_edges(), list(aug.lam.blocks)
                )
                assert bijections, f"{canonical_form(t)}: no admissible bijection"
                for phi in bijections:
                    witness = AdmissibleWitness(tuple(sorted(phi.items())))
                    assert verify_tau_isomorphism(t, aug.lam, witness), (
                        f"{canonical_form(t)}: position map of {phi} not an isomorphism"
                    )
                    maps += 1
                trees += 1
        for n in range(7, 12):
            for t in enumerate_trees(n):
                aug = augment_tree_lambda(t)
                witness = is_admissible(aug.lam, t)
                assert witness is not None, f"{canonical_form(t)}: no witness"
                assert witness.realises(aug.lam, t), f"{canonical_form(t)}: not a witness"
                assert verify_tau_isomorphism(t, aug.lam, witness), (
                    f"{canonical_form(t)}: position map of the witness not an isomorphism"
                )
                maps += 1
                trees += 1
        return f"position maps of {maps} witnesses across {trees} trees are isomorphisms (all bijections n<=6, one witness per tree n=7..11)"

    _run(capsys, 8, body)


def test_criterion_9_greedy_profile_is_optimal(capsys):
    def body():
        checks = 0
        for n in range(1, 8):
            for t in enumerate_trees(n):
                for root in range(t.n):
                    greedy = min_rooted_degree_sequence(t, root)
                    brute = brute_min_profile(t.n, t.sorted_edges(), root)
                    assert greedy == brute, (
                        f"{canonical_form(t)} root {root}: {greedy} != {brute}"
                    )
                    checks += 1
        return f"greedy rooted profile equals brute-force lex-min at all {checks} (tree, root) pairs, n<=7"

    _run(capsys, 9, body)

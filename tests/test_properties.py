"""Property tests: relabel-invariance of the isomorphism-invariant outputs
(the tree code among them),
series evaluation against direct evaluation, the admissibility decision
against the bijection oracle, and the graph6 round trip, on
Hypothesis-drawn graphs and trees.

Trees come from the oracle's Pruefer decoder, not the package's own, and
every test is derandomized so the suite stays deterministic.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_block_bijections, prufer_decode

from kneserchrom import (
    LAMBDA_T_CAP,
    Lambda,
    SimpleGraph,
    canonical_form,
    direct_eval,
    is_admissible,
    kneser_psum,
    lambda_t,
    min_degree_sequence,
    minimum_leaves,
    parse_graph6,
    pseries_eval,
    random_values,
    relabel,
    true_basis,
    write_graph6,
)
from kneserchrom.graphs import _tree_code
from kneserchrom.kneser import _psum_subsets

#: a k = 2 series assembles all 2^|E| spanning subgraphs; 8 edges keep one
#: example well under a second
SERIES_MAX_EDGES = 8


def bounded(max_examples: int):
    return settings(derandomize=True, deadline=None, max_examples=max_examples)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 7, max_edges: int | None = None):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    if not pairs:
        return SimpleGraph.from_edges(n, [])
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges))
    return SimpleGraph.from_edges(n, edges)


@st.composite
def trees(draw, max_n: int):
    n = draw(st.integers(1, max_n))
    if n == 1:
        return SimpleGraph.from_edges(1, [])
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return SimpleGraph.from_edges(n, prufer_decode(seq, n))


@st.composite
def relabelled(draw, source):
    """A drawn graph, a permutation of its vertices, and the relabelled graph."""
    g = draw(source)
    perm = draw(st.permutations(list(range(g.n))))
    return g, perm, relabel(g, perm)


@bounded(60)
@given(relabelled(graphs(max_n=7)))
def test_canonical_form_is_relabel_invariant(case):
    g, _, h = case
    assert canonical_form(h) == canonical_form(g)


@bounded(60)
@given(relabelled(trees(max_n=12)))
def test_profiles_are_relabel_invariant(case):
    t, perm, h = case
    assert min_degree_sequence(h) == min_degree_sequence(t)
    assert minimum_leaves(h) == tuple(sorted(perm[v] for v in minimum_leaves(t)))


@bounded(60)
@given(relabelled(trees(max_n=14)))
def test_tree_code_is_relabel_invariant(case):
    t, _, h = case
    assert _tree_code(h.n, h.edges) == _tree_code(t.n, t.edges)


@bounded(40)
@given(relabelled(trees(max_n=LAMBDA_T_CAP)))
def test_lambda_t_is_relabel_invariant(case):
    t, _, h = case
    assert lambda_t(h) == lambda_t(t)


@bounded(25)
@given(
    graphs(max_n=6, max_edges=SERIES_MAX_EDGES),
    st.integers(2, 5),
    st.integers(0, 1 << 16),
)
def test_series_evaluation_equals_direct_evaluation(g, m, seed):
    for k in (1, 2):
        vals = random_values(k, m, seed)
        assert pseries_eval(kneser_psum(g, k), m, vals) == direct_eval(g, k, m, vals)


@bounded(20)
@given(relabelled(graphs(max_n=6, max_edges=SERIES_MAX_EDGES)))
def test_series_and_true_basis_are_relabel_invariant(case):
    g, _, h = case
    for k in (1, 2):
        series = kneser_psum(g, k)
        assert kneser_psum(h, k).terms == series.terms
        assert true_basis(kneser_psum(h, k)) == true_basis(series)
    # past the cache keyed by canonical form: the subset route on the relabelled graph itself
    assert _psum_subsets(h, 2, True) == series.terms


@st.composite
def connected_graphs(draw, max_n: int):
    """A tree from the oracle's decoder plus any extra edges."""
    t = draw(trees(max_n))
    pairs = [(u, v) for v in range(t.n) for u in range(v)]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SimpleGraph.from_edges(t.n, list(t.edges) + extra)


#: pendant blocks at symbol 0 are twins unless another block tells them apart
PENDANTS = [(0, s) for s in range(1, 5)]
PAIRS = [(a, b) for b in range(5) for a in range(b)]


@bounded(60)
@given(connected_graphs(max_n=6), st.data())
def test_is_admissible_matches_brute_bijections_with_twins(g, data):
    k2 = st.one_of(st.sampled_from(PENDANTS), st.sampled_from(PAIRS))
    k1 = st.tuples(st.integers(0, 2))
    for k, block in ((2, k2), (1, k1)):
        lam = Lambda.from_blocks(k, data.draw(st.lists(block, min_size=g.n, max_size=g.n)))
        brute = all_block_bijections(g.n, g.sorted_edges(), list(lam.blocks))
        witness = is_admissible(lam, g)
        assert (witness is not None) == bool(brute)
        assert witness is None or witness.realises(lam, g)


@bounded(60)
@given(
    st.one_of(  # both size fields: one byte up to n = 62, four bytes beyond
        graphs(min_n=0, max_n=62, max_edges=40),
        graphs(min_n=63, max_n=70, max_edges=40),
    )
)
def test_graph6_round_trip(g):
    assert parse_graph6(write_graph6(g)) == g

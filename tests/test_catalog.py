"""Fingerprints, the series cache, exhaustive verification, collision search."""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from kneserchrom import (
    DEFAULT_SEED,
    SeriesCache,
    SimpleGraph,
    cached_psum,
    canonical_graph6,
    collide_search,
    direct_eval,
    enumerate_graphs,
    enumerate_trees,
    fingerprint,
    kneser_psum,
    lambda_t,
    lambda_t_tilde,
    parse_graph6,
    relabel,
    verify_trees,
    write_graph6,
)
from kneserchrom import catalog, generate, graphs, kneser, trees

P4 = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_deterministic_and_isomorphism_invariant():
    fp1 = fingerprint(kneser_psum(P4, 2))
    fp2 = fingerprint(kneser_psum(P4, 2))
    assert fp1 == fp2
    shuffled = relabel(P4, [2, 0, 3, 1])
    assert fingerprint(kneser_psum(shuffled, 2)) == fp1
    assert fingerprint(kneser_psum(P4, 2), seed=DEFAULT_SEED + 1) != fp1


def test_fingerprint_ms_cover_k_to_six():
    fp = fingerprint(kneser_psum(P4, 2))
    assert fp.ms == tuple(range(2, 7))
    assert len(fp.residues) == len(fp.ms)
    fp1 = fingerprint(kneser_psum(P4, 1))
    assert fp1.ms == tuple(range(1, 7))


def test_fingerprints_of_small_graphs_frozen():
    # sha256 over every fingerprint of k = 1 (n <= 6) then k = 2 (n <= 5)
    # series, in enumeration order, witness before indicator, seeds 1, 2, 3;
    # recorded from the recursive orbit-sum kernel and the uncached sum
    digest = hashlib.sha256()
    for k, n_max in ((1, 6), (2, 5)):
        for n in range(1, n_max + 1):
            for g in enumerate_graphs(n):
                for coeffs in ("witness", "indicator"):
                    series = kneser_psum(g, k, coeffs=coeffs)
                    for seed in (1, 2, 3):
                        digest.update(repr(fingerprint(series, seed)).encode())
    assert digest.hexdigest() == (
        "b1d06a2790cc07aaa5b86a4b4c298e51c896d5af99e0e761e724929d03e5723a"
    )


def test_fingerprints_separate_small_trees():
    # observed: fingerprints alone already separate all trees up to n = 6
    seen = {}
    for n in range(1, 7):
        for t in enumerate_trees(n):
            fp = fingerprint(kneser_psum(t, 2))
            key = (n, fp.residues)
            assert key not in seen
            seen[key] = t


# ---------------------------------------------------------------------------
# graph6 canonical key
# ---------------------------------------------------------------------------


def test_canonical_graph6_stable_under_relabelling():
    g = SimpleGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    h = relabel(g, [4, 0, 3, 1, 2])
    assert canonical_graph6(g) == canonical_graph6(h)
    assert parse_graph6(canonical_graph6(g)).n == 5


def test_enumerated_representatives_name_themselves():
    # verify and collide write the graph6 of an enumerated representative
    # directly: each one is its own canonical representative
    for g in [t for n in range(1, 13) for t in enumerate_trees(n)] + [
        g for n in range(1, 7) for g in enumerate_graphs(n)
    ]:
        assert write_graph6(g) == canonical_graph6(g)


# ---------------------------------------------------------------------------
# the series cache
# ---------------------------------------------------------------------------


def test_k_true_is_refused(tmp_path):
    # True == 1, but a series or cache record with k = True is malformed
    p2 = SimpleGraph.from_edges(2, [(0, 1)])
    path = tmp_path / "series.jsonl"
    for call in [
        lambda: kneser_psum(p2, True),
        lambda: cached_psum(p2, True, cache=SeriesCache(path)),
        lambda: lambda_t(p2, True),
        lambda: direct_eval(p2, True, 3, {}),
        lambda: collide_search(2, True),
    ]:
        with pytest.raises(ValueError, match="^only k = 1 and k = 2 are supported$"):
            call()
    assert not path.exists() or path.read_text() == ""


def test_cache_round_trip_and_reload(tmp_path):
    path = tmp_path / "series.jsonl"
    cache = SeriesCache(path)
    series = cached_psum(P4, 2, "witness", cache)
    assert cache.get(P4, 2, "witness").terms == series.terms
    # isomorphic graphs share the cache key
    shuffled = relabel(P4, [3, 1, 0, 2])
    assert cache.get(shuffled, 2, "witness") is not None
    # a fresh instance reads the same record back from disk
    reloaded = SeriesCache(path)
    hit = reloaded.get(P4, 2, "witness")
    assert hit is not None and hit.terms == series.terms
    # putting the same key again does not grow the file
    before = path.read_text()
    cached_psum(shuffled, 2, "witness", reloaded)
    assert path.read_text() == before


def test_cache_hands_out_copies(tmp_path):
    cache = SeriesCache(tmp_path / "series.jsonl")
    bogus = ("9:[]",)
    miss = cached_psum(P4, 2, "witness", cache)
    expected = dict(miss.terms)
    miss.terms[bogus] = 1
    hit = cached_psum(P4, 2, "witness", cache)
    assert hit.terms == expected
    hit.terms[bogus] = 1
    assert cached_psum(P4, 2, "witness", cache).terms == expected


def test_cache_lines_are_compact_json(tmp_path):
    path = tmp_path / "series.jsonl"
    cache = SeriesCache(path)
    cached_psum(P4, 1, "witness", cache)
    cached_psum(P4, 2, "indicator", cache)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        record = json.loads(line)
        assert record["version"] == "1"
        assert json.dumps(record, separators=(",", ":"), sort_keys=True) == line


def test_cache_rejects_corrupt_line(tmp_path):
    path = tmp_path / "series.jsonl"
    path.write_text('{"version": "1", "graph6"\n')
    with pytest.raises(ValueError, match=r"series\.jsonl:1"):
        SeriesCache(path)
    path.write_text('{"version": "1", "graph6": "A_", "k": 2}\n')
    with pytest.raises(ValueError, match="malformed cache record"):
        SeriesCache(path)


@pytest.mark.parametrize(
    "field, value",
    [("k", 1), ("coeffs", "indicator"), ("graph6", "Bw")],
)
def test_cache_rejects_record_disagreeing_with_its_series(tmp_path, field, value):
    # the outer k, coeffs and graph6 key a record, so each must match its series
    path = tmp_path / "series.jsonl"
    cached_psum(P4, 2, "witness", SeriesCache(path))
    record = json.loads(path.read_text())
    record[field] = value
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match="malformed cache record"):
        SeriesCache(path)


def test_cache_skips_unknown_version(tmp_path):
    path = tmp_path / "series.jsonl"
    path.write_text('{"version": "999", "graph6": "A_", "k": 2, "coeffs": "witness"}\n')
    cache = SeriesCache(path)
    assert not cache.records


def test_cache_skips_other_versions_among_records(tmp_path):
    path = tmp_path / "series.jsonl"
    cached_psum(P4, 2, "witness", SeriesCache(path))
    other = {**json.loads(path.read_text()), "version": "0", "graph6": "Bw"}
    path.write_text(json.dumps(other) + "\n" + path.read_text())
    cache = SeriesCache(path)
    assert list(cache.records) == [(canonical_graph6(P4), 2, "witness")]


def test_cache_put_of_a_stored_key_appends_nothing(tmp_path):
    path = tmp_path / "series.jsonl"
    cache = SeriesCache(path)
    series = kneser_psum(P4, 2)
    cache.put(P4, 2, "witness", series)
    cache.put(relabel(P4, [3, 1, 0, 2]), 2, "witness", series)
    assert len(path.read_text().splitlines()) == 1


# ---------------------------------------------------------------------------
# exhaustive tree verification
# ---------------------------------------------------------------------------


def test_verify_trees_small():
    report = verify_trees(4)
    summary = report["summary"]
    assert summary["n_max"] == 4
    assert summary["trees"] == 5  # free trees on 1..4 vertices: 1+1+1+2
    assert summary["failures"] == 0
    assert summary["all_pass"] is True
    assert summary["injective"] is True
    assert summary["duplicate_class_sets"] == []
    assert len(report["records"]) == 5
    for record in report["records"]:
        assert record["pass"] is True
        assert record["lambda_t_size"] >= record["lambda_t_tilde_size"] >= 1
        assert record["reconstructed"] == record["graph6"]
        g = parse_graph6(record["graph6"])
        assert g.n == record["n"]


def test_verify_trees_witness_mode():
    report = verify_trees(4, witness=True)
    assert report["summary"]["all_pass"] is True
    assert all(record["witness_ok"] for record in report["records"])


def test_verify_trees_refuses_witness_off_the_multiset(monkeypatch):
    # the root's block (0, 1) swapped for (1, 1): same maximum, so the
    # position map still passes, but the block is not in the multiset
    search = catalog.is_admissible

    def foreign(lam, g):
        found = search(lam, g)
        return kneser.AdmissibleWitness(
            tuple((v, (1, 1) if b == (0, 1) else b) for v, b in found.assignment)
        )

    monkeypatch.setattr(catalog, "is_admissible", foreign)
    report = verify_trees(4, witness=True)
    assert not any(record["witness_ok"] for record in report["records"])
    assert report["summary"]["failures"] == report["summary"]["trees"] == 5


def test_verify_trees_profiles_each_class_once():
    for cache in (trees._code_profile, graphs._centre_rooted, graphs._tree_form):
        cache.cache_clear()
    records = verify_trees(7)["records"]
    # each distinct class once, however many trees or rebuilds share it: a
    # class profiled twice would miss the code-keyed cache twice
    profiled = trees._code_profile.cache_info().misses
    distinct = {cls for n in range(1, 8) for t in enumerate_trees(n) for cls in lambda_t(t)}
    assert profiled == len(distinct) < sum(r["lambda_t_size"] for r in records)
    # the minimal-profile class of a tree is unique
    assert all(r["lambda_t_tilde_size"] == 1 for r in records)



def test_verify_trees_searches_each_distinct_tree_once(monkeypatch):
    # cold: every package cache that could already hold a search is emptied
    for fn in (
        graphs._canonical_form_cached,
        graphs._tree_form,
        generate.enumerate_trees,
        graphs._centre_rooted,
        trees._code_profile,
    ):
        fn.cache_clear()
    searched = []
    search = graphs._canonical_edge_list

    def counted(n, weighted_edges):
        body, aut = search(n, weighted_edges)
        searched.append(f"{n}:" + json.dumps(body, separators=(",", ":")))
        return body, aut

    monkeypatch.setattr(graphs, "_canonical_edge_list", counted)
    verify_trees(7)
    monkeypatch.undo()
    # the trees it names: the inputs and each one's minimal-profile class;
    # the one-vertex input is enumerated without a search and verify names
    # inputs by code, so its form is never searched
    inputs = [t for n in range(1, 8) for t in enumerate_trees(n)]
    named = {graphs.canonical_form(t) for t in inputs if t.n > 1}
    named |= {cls[0] for t in inputs for cls in lambda_t_tilde(t)[0]}
    assert len(searched) == len(set(searched)) == len(named) == 35
    assert set(searched) == named


def test_verify_trees_builds_each_input_tree_once(monkeypatch):
    # the labelled canonical-form cache is emptied, so a second build of an
    # input tree behind canonical_form could not hide as a cache hit;
    # naming the tree by canonical_graph6 and its classes by
    # _lambda_t_codes made 262 calls here and built every input tree twice
    graphs._canonical_form_cached.cache_clear()
    inputs = [t for n in range(1, 10) for t in enumerate_trees(n)]
    built = []
    build = graphs._tree_code

    def counted(n, edges):
        built.append((n, frozenset(map(tuple, edges))))
        return build(n, edges)

    for module in (graphs, trees, catalog):
        monkeypatch.setattr(module, "_tree_code", counted)
    assert verify_trees(9, witness=True)["summary"]["all_pass"] is True
    monkeypatch.undo()
    calls = Counter(built)
    assert [calls[(t.n, t.edges)] for t in inputs] == [1] * 95
    # the other calls name rebuilt trees, each labelled tree once
    assert set(calls.values()) == {1}


def test_verify_trees_decodes_no_form_and_canonicalises_no_tree(monkeypatch):
    # the enumerated representatives are canonical, so the record names each
    # input by write_graph6 and the round trip compares codes; naming them
    # through forms made 95 graph_from_form and 72 canonical_form calls here
    for n in range(1, 10):
        enumerate_trees(n)
    calls = Counter()

    def counting(name):
        inner = getattr(catalog, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)

        return counted

    for name in ("graph_from_form", "canonical_form"):
        monkeypatch.setattr(catalog, name, counting(name))
    assert verify_trees(9, witness=True)["summary"]["all_pass"] is True
    assert calls == Counter()


def test_verify_trees_rejects_bad_bound():
    # True == 1, but a bool is not a vertex count
    for bound in (0, True, 2.0, "3"):
        with pytest.raises(ValueError, match="need an integer n_max >= 1"):
            verify_trees(bound)


def test_verify_trees_refuses_above_lambda_t_cap_before_any_tree(monkeypatch):
    from kneserchrom import LAMBDA_T_CAP, CapExceededError, catalog

    def refuse(n):
        raise AssertionError("a tree was enumerated before the cap check")

    monkeypatch.setattr(catalog, "enumerate_trees", refuse)
    with pytest.raises(CapExceededError, match="tree verification capped"):
        verify_trees(LAMBDA_T_CAP + 1)


def test_verify_trees_reports_shared_class_sets(capsys, monkeypatch):
    from kneserchrom.cli import main

    # every tree gets P4's tree classes, so every later tree clashes with the first
    codes = trees._lambda_t_codes(P4)
    monkeypatch.setattr(catalog, "_code_lambda_t", lambda code: codes)
    summary = verify_trees(4)["summary"]
    assert summary["injective"] is False
    assert len(summary["duplicate_class_sets"]) == summary["trees"] - 1 > 0
    assert summary["all_pass"] is False
    assert main(["verify", "--nmax", "4"]) == 4
    assert "injective=NO all=FAIL" in capsys.readouterr().out


def test_lambda_t_cap_has_one_owner(monkeypatch):
    from kneserchrom import CapExceededError

    # raising or lowering trees.LAMBDA_T_CAP alone moves both refusals
    monkeypatch.setattr(trees, "LAMBDA_T_CAP", 3)
    with pytest.raises(CapExceededError) as exc:
        verify_trees(4)
    assert str(exc.value) == "tree verification capped at 3 vertices (got 4)"
    with pytest.raises(CapExceededError) as exc:
        lambda_t(P4)
    assert str(exc.value) == "tree-class extraction capped at 3 vertices (got 4)"


def test_cached_psum_refuses_before_reading_the_cache(tmp_path, monkeypatch):
    from kneserchrom import CapExceededError

    def refuse(*args):
        raise AssertionError("the cache was read before the cap check")

    # canonicalising the Petersen graph, as a cache lookup would, takes tens of seconds
    monkeypatch.setattr(SeriesCache, "get", refuse)
    path = tmp_path / "series.jsonl"
    with pytest.raises(CapExceededError, match=r"capped at 7 vertices \(got 10\)"):
        cached_psum(parse_graph6("IheA@GUAo"), 2, cache=SeriesCache(path))
    assert not path.exists()


# ---------------------------------------------------------------------------
# collision search
# ---------------------------------------------------------------------------


def test_collide_search_k1_finds_the_classical_pair():
    result = collide_search(5, 1)
    summary = result["summary"]
    assert summary["graphs"] == 1 + 2 + 4 + 11 + 34
    assert summary["collisions"] == 1
    (entry,) = result["collisions"]
    pair = {entry["graph6_a"], entry["graph6_b"]}
    assert pair == {canonical_graph6(parse_graph6("D`{")), canonical_graph6(parse_graph6("DR["))}
    # equal functions have equal terms: the class products are linearly
    # independent for k = 1 and k = 2 alike
    assert entry["representation_equal"] is True
    assert summary["fingerprint_collisions"] == 0


def test_collide_search_k2_separates_all_small_graphs():
    result = collide_search(5, 2)
    summary = result["summary"]
    assert summary["collisions"] == 0
    assert result["collisions"] == []
    # low-symbol fingerprints do clash: these pairs agree on every value
    # map with at most 6 symbols yet differ as invariants
    assert summary["fingerprint_collisions"] == 12
    clashing = {
        frozenset((e["graph6_a"], e["graph6_b"]))
        for e in result["fingerprint_collisions"]
    }
    known = frozenset(
        (canonical_graph6(parse_graph6("DR[")), canonical_graph6(parse_graph6("Dr[")))
    )
    assert known in clashing


def test_collide_search_decides_pairs_without_true_basis(monkeypatch):
    # the exact step compares terms; the disjoint-support basis stays the
    # oracle, and the results are those its vectors gave
    def refuse(*args):
        raise AssertionError("collision search expanded a series in the disjoint-support basis")

    with monkeypatch.context() as mp:
        mp.setattr(kneser, "true_basis", refuse)
        mp.setattr(kneser, "_merge_expansion", refuse)
        results = {k: collide_search(5, k) for k in (1, 2)}
    digests = {
        k: hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()
        for k, r in results.items()
    }
    assert digests == {
        1: "f83dd0c3f32699e3511c9320ab3aea1bf08925bcadbfd068c449018257cf99ae",
        2: "0f12b3ec934be550ee532d7a5e083bd7b72ed98f6bd1d98ec1b79141b29ae925",
    }
    for k, result in results.items():
        for entries, equal in ((result["collisions"], True), (result["fingerprint_collisions"], False)):
            for e in entries:
                a, b = (kneser_psum(parse_graph6(e[key]), k) for key in ("graph6_a", "graph6_b"))
                assert (kneser.true_basis(a) == kneser.true_basis(b)) is equal


def test_collide_search_uses_cache(tmp_path):
    cache = SeriesCache(tmp_path / "series.jsonl")
    first = collide_search(3, 2, cache=cache)
    assert len(cache.records) == 1 + 2 + 4
    again = collide_search(3, 2, cache=cache)
    assert first == again


def test_collide_search_rejects_bad_bound():
    for bound in (0, True, 2.0, "3"):
        with pytest.raises(ValueError, match="need an integer n_max >= 1"):
            collide_search(bound, 1)


@pytest.mark.parametrize("seed", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_seed_must_be_an_integer(seed, monkeypatch):
    # True == 1 shared seed 1's cached draw, so the values depended on
    # which seed a process had used first
    message = f"seed must be an integer (got {seed!r})"
    with pytest.raises(ValueError) as exc:
        fingerprint(kneser_psum(P4, 2), seed=seed)
    assert str(exc.value) == message

    def refuse(*args, **kwargs):
        raise AssertionError("a series was computed before the seed check")

    monkeypatch.setattr(catalog, "cached_psum", refuse)
    with pytest.raises(ValueError) as exc:
        collide_search(3, 2, seed=seed)
    assert str(exc.value) == message


def test_collide_search_k2_refuses_seven_vertices_before_any_series(monkeypatch):
    from kneserchrom import CapExceededError, catalog

    def refuse(*args, **kwargs):
        raise AssertionError("a series was computed before the cap check")

    monkeypatch.setattr(catalog, "cached_psum", refuse)
    with pytest.raises(CapExceededError, match="spanning subgraphs"):
        collide_search(7, 2)

"""Evaluation fingerprints, a JSONL series cache, and verification drivers.

``verify_trees`` is the machine check behind the package's headline claim:
for every free tree up to a requested size, the tree classes of the k = 2
invariant reconstruct the tree, and no two non-isomorphic trees share a
tree-class set.  ``collide_search`` hunts for equal invariants among *all*
graphs of a given size, using modular evaluation fingerprints to group
candidates cheaply before comparing series exactly.  Both return plain
dictionaries so the command line layer can render them as text or JSON.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .generate import enumerate_graphs, enumerate_trees
from .graph6 import parse_graph6, write_graph6
from .graphs import (
    SimpleGraph,
    _as_simple,
    _tree_code,
    canonical_form,
    graph_from_form,
)
from .kneser import (
    PSeries,
    _check_draw,
    _check_series_args,
    augment_tree_lambda,
    is_admissible,
    kneser_psum,
    pseries_eval,
    random_values,
)
from .reconstruct import _delete_minimum_leaf, verify_tau_isomorphism
from .trees import _check_tree_cap, _code_lambda_t, _minimal_tree_classes

#: seed used by fingerprints and collision search when none is given
DEFAULT_SEED = 1729
#: bump when the cache record layout changes
CACHE_VERSION = "1"


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    """Residues of a series at seeded pseudorandom value maps.

    Equal invariants always produce equal fingerprints (everything is
    deterministic in the seed), so distinct fingerprints certify distinct
    invariants.  Equal fingerprints are only a hint: they probe the
    restriction to at most ``max(ms)`` symbols, which is blind to
    disjoint-support classes spreading over more symbols, so candidates
    must be confirmed by exact comparison of their terms.
    """

    k: int
    seed: int
    ms: tuple[int, ...]
    residues: tuple[int, ...]


def fingerprint(series: PSeries, seed: int = DEFAULT_SEED) -> Fingerprint:
    """Evaluate the series at seeded value maps for a spread of symbol counts;
    ``ValueError`` unless the seed is an int (``kneser._check_draw``)."""
    ms = tuple(range(series.k, 7))
    residues = tuple(
        pseries_eval(series, m, random_values(series.k, m, seed)) for m in ms
    )
    return Fingerprint(series.k, seed, ms, residues)


# ---------------------------------------------------------------------------
# JSONL cache of computed series
# ---------------------------------------------------------------------------


def canonical_graph6(g: SimpleGraph) -> str:
    """graph6 string of the canonical representative -- an isomorphism key,
    which ``write_graph6`` gives directly for an enumerated representative.
    A multigraph with a repeated edge raises ``ValueError``: graph6 cannot
    spell it."""
    return write_graph6(graph_from_form(canonical_form(_as_simple(g, "canonical graph6"))))


class SeriesCache:
    """Append-only JSONL store of computed series, keyed by isomorphism class.

    Each line is one record ``{"version", "graph6", "k", "coeffs",
    "series"}`` with the canonical graph6 string as the graph key, so hits
    are shared across isomorphic inputs and across runs.  A record whose
    vertex count, ``k`` or ``coeffs`` disagrees with its series is refused
    as malformed.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.records: dict[tuple[str, int, str], PSeries] = {}
        if self.path.exists():
            with self.path.open() as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        data = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ValueError(
                            f"{self.path}:{lineno}: cache line is not valid JSON: {exc}"
                        ) from exc
                    try:
                        if not isinstance(data, dict):
                            raise TypeError("a record must be a JSON object")
                        if data.get("version") != CACHE_VERSION:
                            continue
                        key = (data["graph6"], data["k"], data["coeffs"])
                        # int() would truncate 2.9 or read "2"; bool is a subclass of int
                        if type(key[0]) is not str or type(key[1]) is not int:
                            raise TypeError("graph6 must be a string and k an integer")
                        series = PSeries.from_json_dict(data["series"])
                        n = parse_graph6(key[0]).n
                        if (n, *key[1:]) != (series.n, series.k, series.coeffs):
                            raise ValueError("graph6, k or coeffs disagree with the series")
                    except (KeyError, TypeError, ValueError) as exc:
                        raise ValueError(
                            f"{self.path}:{lineno}: malformed cache record: {exc}"
                        ) from exc
                    self.records[key] = series

    def get(self, g: SimpleGraph, k: int, coeffs: str) -> PSeries | None:
        """The stored series, with a ``terms`` dict of the caller's own."""
        hit = self.records.get((canonical_graph6(g), k, coeffs))
        return None if hit is None else replace(hit, terms=dict(hit.terms))

    def put(self, g: SimpleGraph, k: int, coeffs: str, series: PSeries) -> None:
        key = (canonical_graph6(g), k, coeffs)
        if key in self.records:
            return
        self.records[key] = replace(series, terms=dict(series.terms))
        record = {
            "version": CACHE_VERSION,
            "graph6": key[0],
            "k": k,
            "coeffs": coeffs,
            "series": series.to_json_dict(),
        }
        with self.path.open("a") as fh:
            fh.write(json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n")


def cached_psum(
    g: SimpleGraph, k: int, coeffs: str = "witness", cache: SeriesCache | None = None
) -> PSeries:
    """``kneser_psum`` with an optional persistent cache in front; the series
    caps are checked before the cache is read."""
    _check_series_args(g.n, len(g.edges), k, coeffs, "power-sum expansion")
    if cache is not None:
        hit = cache.get(g, k, coeffs)
        if hit is not None:
            return hit
    series = kneser_psum(g, k, coeffs=coeffs)
    if cache is not None:
        cache.put(g, k, coeffs, series)
    return series


# ---------------------------------------------------------------------------
# exhaustive tree verification
# ---------------------------------------------------------------------------


def verify_trees(n_max: int, *, witness: bool = False) -> dict:
    """Round-trip and injectivity check over all free trees up to ``n_max``.

    For each tree: extract the tree classes of its k = 2 invariant, profile
    them, reconstruct, and compare with the original up to isomorphism.
    Afterwards check that no two trees produced the same tree-class set.
    Each tree's centre-rooted code is its one identity: its classes are
    read off it, injectivity compares code sets and the rebuild is compared
    by code.  The enumerated representative is canonical already, so its
    graph6 is written from it directly.
    With ``witness`` also confirm, per tree, that an admissibility witness
    of its canonical augmented multiset is a bijection onto that multiset
    with intersecting blocks on every edge, and that it induces a position
    isomorphism.
    Refuses an ``n_max`` above ``LAMBDA_T_CAP`` before any tree.
    """
    if type(n_max) is not int or n_max < 1:  # True == 1, but is no bound
        raise ValueError("need an integer n_max >= 1")
    _check_tree_cap(n_max, "tree verification")
    records: list[dict] = []
    class_sets: dict[frozenset, str] = {}
    duplicate_pairs: list[tuple[str, str]] = []
    failures = 0
    for n in range(1, n_max + 1):
        for tree in enumerate_trees(n):
            started = time.perf_counter()
            # one centre-rooted code names the tree and its classes
            code = _tree_code(tree.n, tree.edges)
            g6 = write_graph6(tree)
            codes = _code_lambda_t(code)
            tilde, profile = _minimal_tree_classes(codes)
            rebuilt = _delete_minimum_leaf(tilde).graph
            # codes are equal exactly for isomorphic trees; a rebuild equal
            # to the input as a labelled tree needs none
            ok = rebuilt == tree or _tree_code(rebuilt.n, rebuilt.edges) == code
            reconstructed = g6 if ok else canonical_graph6(rebuilt)
            record = {
                "n": n,
                "graph6": g6,
                "lambda_t_size": len(codes),
                "lambda_t_tilde_size": len(tilde),
                "min_profile": list(profile),
                "reconstructed": reconstructed,
                "pass": ok,
            }
            if witness:
                aug = augment_tree_lambda(tree)
                found = is_admissible(aug.lam, tree)
                witness_ok = False
                if found is not None and found.realises(aug.lam, tree):
                    witness_ok = verify_tau_isomorphism(tree, aug.lam, found)
                record["witness_ok"] = bool(witness_ok)
                ok = ok and witness_ok
                record["pass"] = bool(ok)
            # a code names exactly one class form, so code sets key injectivity
            if codes in class_sets:
                duplicate_pairs.append((class_sets[codes], g6))
            else:
                class_sets[codes] = g6
            if not ok:
                failures += 1
            record["ms"] = round((time.perf_counter() - started) * 1000.0, 3)
            records.append(record)
    summary = {
        "n_max": n_max,
        "k": 2,
        "trees": len(records),
        "failures": failures,
        "injective": not duplicate_pairs,
        "duplicate_class_sets": [list(p) for p in duplicate_pairs],
        "all_pass": failures == 0 and not duplicate_pairs,
    }
    return {"summary": summary, "records": records}


# ---------------------------------------------------------------------------
# collision search over all graphs
# ---------------------------------------------------------------------------


def collide_search(
    n_max: int,
    k: int,
    *,
    seed: int = DEFAULT_SEED,
    cache: SeriesCache | None = None,
) -> dict:
    """Search all graphs (per vertex count) for equal invariants.

    Graphs are grouped by vertex count and fingerprint, each named by the
    graph6 of its (canonical) ``enumerate_graphs`` representative; pairs
    within a group are decided exactly by their terms, since the class
    products are linearly independent (see the basis note in ``kneser``):
    equal terms mean equal ``true_basis`` vectors and equal functions.
    Equal terms land in ``collisions``, whose ``representation_equal`` is
    therefore always true; unequal terms whose low-symbol evaluations
    happened to match land in ``fingerprint_collisions``.  The latter
    genuinely occur: two series can agree on every value map with at most 6
    symbols yet differ in disjoint-support classes spreading over more
    symbols.
    An ``n_max`` above ``PSUM_VERTEX_CAP``, or (k = 2) with K_{n_max} above
    ``PSUM_SUBSET_CAP``, raises ``CapExceededError`` before any series, and
    a seed that is not an int (a bool included) ``ValueError``.
    """
    if type(n_max) is not int or n_max < 1:  # True == 1, but is no bound
        raise ValueError("need an integer n_max >= 1")
    # K_{n_max} has the most vertices and edges of any graph searched
    _check_series_args(n_max, n_max * (n_max - 1) // 2, k, "witness", "collision search")
    _check_draw(k, k, seed)
    collisions: list[dict] = []
    fp_collisions: list[dict] = []
    graphs_seen = 0
    for n in range(1, n_max + 1):
        groups: dict[tuple[int, ...], list[tuple[str, PSeries]]] = {}
        for g in enumerate_graphs(n):
            graphs_seen += 1
            series = cached_psum(g, k, "witness", cache)
            fp = fingerprint(series, seed)
            groups.setdefault(fp.residues, []).append((write_graph6(g), series))
        for members in groups.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    g6a, sa = members[i]
                    g6b, sb = members[j]
                    entry = {"n": n, "graph6_a": g6a, "graph6_b": g6b}
                    if sa.terms == sb.terms:
                        entry["representation_equal"] = True
                        collisions.append(entry)
                    else:
                        fp_collisions.append(entry)
    return {
        "summary": {
            "n_max": n_max,
            "k": k,
            "seed": seed,
            "graphs": graphs_seen,
            "collisions": len(collisions),
            "fingerprint_collisions": len(fp_collisions),
        },
        "collisions": collisions,
        "fingerprint_collisions": fp_collisions,
    }

"""One pass of one workload, in a fresh interpreter.

    python bench/child.py JOB_JSON SPAWN_TIME

``bench/run.py`` starts this script once per pass; ``SPAWN_TIME`` is its
``time.monotonic()`` just before the start, so set-up time covers
interpreter start, package import and decoding the inputs.  The job file
says what to do (``mode``):

* ``setup`` -- stop at the first timed call and report set-up time only;
* ``pass``  -- run the timed phase once, then report its outputs;
* ``fill``  -- write the series cache that ``collide-n5`` reads.

The process imports only the standard library, ``kneserchrom`` and
``spans`` (with ``trace`` set), so its peak RSS is the program's own.
The outputs are checked by ``run.py`` after this process has ended.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import defaultdict

from kneserchrom import catalog, generate, graphs, kneser

import spans

#: (module, attribute, span name) of every wrapped function in a traced pass
TARGETS = (
    ("kneserchrom.graphs", "canonical_form", "graphs.canonical_form"),
    ("kneserchrom.graphs", "automorphism_count", "graphs.automorphism_count"),
    ("kneserchrom.generate", "enumerate_trees", "generate.enumerate_trees"),
    ("kneserchrom.kneser", "lambda_t", "kneser.lambda_t"),
    ("kneserchrom.kneser", "is_admissible", "kneser.is_admissible"),
    ("kneserchrom.kneser", "pseries_eval", "kneser.pseries_eval"),
    ("kneserchrom.kneser", "_orbit_sum", "kneser.orbit_sum"),
    ("kneserchrom.kneser", "true_basis", "kneser.true_basis"),
    ("kneserchrom.kneser", "_merge_expansion", "kneser.merge_expansion"),
    ("kneserchrom.profiles", "min_degree_sequence", "profiles.min_degree_sequence"),
    ("kneserchrom.reconstruct", "reconstruct_from_lambda_t", "reconstruct.reconstruct_from_lambda_t"),
    ("kneserchrom.catalog", "fingerprint", "catalog.fingerprint"),
    ("kneserchrom.catalog", "SeriesCache.__init__", "catalog.series_cache.load"),
    ("kneserchrom.catalog", "SeriesCache.get", "catalog.series_cache.get"),
)


def lru(module, name: str):
    """A package lru cache, or None once the package drops it."""
    fn = getattr(module, name, None)
    return fn if hasattr(fn, "cache_info") else None


#: lru caches whose misses are reported, by metric prefix; looked up on
#: import, before a traced pass rebinds the names to wrappers
CACHES = {
    "graphs.canonical_form": (lru(graphs, "_canonical_form_cached"),),
    "kneser.merge_expansion": (lru(kneser, "_merge_expansion"),),
}

# ---------------------------------------------------------------------------
# workloads: each decodes its inputs and returns the timed phase, a callable
# whose result ``report`` turns into JSON outside the timed phase
# ---------------------------------------------------------------------------


def prepare_trees(job):
    def timed():
        return catalog.verify_trees(9, witness=True)

    def report(result):
        # each tree is one item; its latency is the program's own per-tree time
        latencies = [record["ms"] / 1000.0 for record in result["records"]]
        return {"result": result, "latencies_s": latencies}

    return timed, report


def prepare_collide(job):
    path, seed = job["cache"], job["seed"]

    def timed():
        return catalog.collide_search(5, 2, seed=seed, cache=catalog.SeriesCache(path))

    return timed, lambda result: {"result": result}


WORKLOADS = {
    "trees-n9": prepare_trees,
    "collide-n5": prepare_collide,
}


def fill_collide_cache(path: str) -> None:
    cache = catalog.SeriesCache(path)
    for n in range(1, 6):
        for g in generate.enumerate_graphs(n):
            catalog.cached_psum(g, 2, "witness", cache)


# ---------------------------------------------------------------------------
# per-layer metrics of a traced pass
# ---------------------------------------------------------------------------


def cache_counts(cache) -> tuple[int, int]:
    """(misses, current size) of an lru cache from ``CACHES``."""
    if cache is None:
        return 0, 0
    info = cache.cache_info()
    return info.misses, info.currsize


def cache_misses() -> dict[str, int]:
    return {name: sum(cache_counts(c)[0] for c in caches) for name, caches in CACHES.items()}


def layer_metrics(tracer, misses_before, result) -> dict[str, float]:
    # functions the package no longer has report zero
    t = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "found": 0}, tracer.totals())
    misses = {name: n - misses_before[name] for name, n in cache_misses().items()}
    admissible = t["kneser.is_admissible"]
    get = t["catalog.series_cache.get"]
    summary = result.get("summary", {}) if isinstance(result, dict) else {}
    clashes = summary.get("fingerprint_collisions", 0)
    return {
        "graphs.canonical_form.calls": t["graphs.canonical_form"]["calls"],
        "graphs.canonical_form.self_s": t["graphs.canonical_form"]["self_s"],
        "graphs.canonical_form.cache_miss": misses["graphs.canonical_form"],
        "graphs.canonical_form.cache_size": cache_counts(CACHES["graphs.canonical_form"][0])[1],
        "graphs.automorphism_count.calls": t["graphs.automorphism_count"]["calls"],
        "graphs.automorphism_count.self_s": t["graphs.automorphism_count"]["self_s"],
        "generate.enumerate_trees.calls": t["generate.enumerate_trees"]["calls"],
        "generate.enumerate_trees.self_s": t["generate.enumerate_trees"]["self_s"],
        "kneser.lambda_t.calls": t["kneser.lambda_t"]["calls"],
        "kneser.is_admissible.calls": admissible["calls"],
        "kneser.is_admissible.self_s": admissible["self_s"],
        "kneser.is_admissible.yield": admissible["found"] / admissible["calls"]
        if admissible["calls"]
        else 0.0,
        "profiles.min_degree_sequence.calls": t["profiles.min_degree_sequence"]["calls"],
        "profiles.min_degree_sequence.self_s": t["profiles.min_degree_sequence"]["self_s"],
        "reconstruct.reconstruct_from_lambda_t.self_s": t["reconstruct.reconstruct_from_lambda_t"][
            "self_s"
        ],
        "catalog.fingerprint.self_s": t["catalog.fingerprint"]["self_s"],
        "kneser.pseries_eval.calls": t["kneser.pseries_eval"]["calls"],
        "kneser.orbit_sum.calls": t["kneser.orbit_sum"]["calls"],
        "kneser.orbit_sum.self_s": t["kneser.orbit_sum"]["self_s"],
        "kneser.true_basis.calls": t["kneser.true_basis"]["calls"],
        "kneser.true_basis.self_s": t["kneser.true_basis"]["self_s"],
        "kneser.merge_expansion.self_s": t["kneser.merge_expansion"]["self_s"],
        "kneser.merge_expansion.cache_miss": misses["kneser.merge_expansion"],
        "catalog.exact_pairs": summary.get("collisions", 0) + clashes,
        "catalog.fp_clash_pairs": clashes,
        "catalog.series_cache.load_s": t["catalog.series_cache.load"]["total_s"],
        "catalog.series_cache.get.hit": get["found"],
        "catalog.series_cache.get.miss": get["calls"] - get["found"],
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started.

    Read as ``VmHWM`` where the kernel provides it: Linux carries the
    spawning process's own peak into ``ru_maxrss`` across exec, so there
    ``ru_maxrss`` would report the harness, not the program.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    spawned = float(sys.argv[2])
    if job["mode"] == "fill":
        fill_collide_cache(job["cache"])
        out = {}
    else:
        out = run_job(job, spawned)
    with open(job["out"], "w") as fh:
        json.dump(out, fh)


def run_job(job: dict, spawned: float) -> dict:
    tracer = None
    if job["trace"]:
        tracer = spans.Tracer()
        untraced = spans.install(tracer, TARGETS)
    timed, report = WORKLOADS[job["workload"]](job)
    misses_before = cache_misses()
    started = time.monotonic()
    out = {"setup_s": started - spawned}
    if tracer is not None:
        out["untraced"] = untraced  # functions the package no longer has
    if job["mode"] == "setup":
        return out
    clock = time.perf_counter()
    try:
        result = timed()
    except Exception as exc:  # counted as a failed pass by run.py
        result = exc
    out["wall_s"] = time.perf_counter() - clock
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, misses_before, result)
    if isinstance(result, Exception):
        out["error"] = repr(result)
        return out
    out.update(report(result))
    out.setdefault("latencies_s", [out["wall_s"]])
    return out


if __name__ == "__main__":
    main()

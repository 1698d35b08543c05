"""Benchmark of kneserchrom's tree verification and collision search.

    python3 bench/run.py --workload trees-n9 --seed 1 --seconds 60 --trace 0

Workloads (see NOTES.md for why each was chosen):

* ``trees-n9``   -- ``verify_trees(9, witness=True)`` over 95 trees;
* ``collide-n5`` -- ``collide_search(5, 2, seed=SEED)`` over 52 graphs, reading
  a series cache that a separate process wrote first.

One caller in one process drives the package in a closed loop: the next call
starts when the previous one returns.  Each pass runs in a fresh interpreter
(``child.py``), since every command line invocation fills the package's
in-process caches from empty.  Passes repeat while another one, as long as
the last, still ends within ``--seconds``; there is always at least one, and
several set-up-only starts add samples to ``setup_s``.  Outputs are checked
after each pass has ended.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead (traced minus untraced ``wall_s``).  A human
summary comes first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record of
the run goes to ``bench/out/``.  Exits 2 without a result when the package
source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: every run ends well inside the 180 s a run may take
RUN_LIMIT_S = 170.0
#: set-up-only interpreter starts per run, on top of one per pass
SETUP_SAMPLES = 8
#: free trees per vertex count, n = 1..9
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
TREE_COUNTS_TOTAL = sum(TREE_COUNTS.values())


# ---------------------------------------------------------------------------
# inputs and checks, per workload
# ---------------------------------------------------------------------------


def check_trees(job: dict, out: dict) -> tuple[int, dict]:
    import networkx as nx

    summary, records = out["result"]["summary"], out["result"]["records"]
    if Counter(r["n"] for r in records) != Counter(TREE_COUNTS):
        return TREE_COUNTS_TOTAL, {"per_n_counts_ok": False}

    def parse(s: str):
        return nx.from_graph6_bytes(s.encode())

    failed = sum(
        1
        for r in records
        if not r["pass"] or not nx.is_isomorphic(parse(r["graph6"]), parse(r["reconstructed"]))
    )
    if not summary["all_pass"]:
        failed = max(failed, 2 * len(summary["duplicate_class_sets"]), 1)
    return min(failed, TREE_COUNTS_TOTAL), {"all_pass": summary["all_pass"]}


def check_collide(job: dict, out: dict) -> tuple[int, dict]:
    summary = out["result"]["summary"]
    ok = summary["graphs"] == 52 and summary["collisions"] == 0
    return (0 if ok else 52), {"summary": summary}


@dataclass(frozen=True)
class Workload:
    items: int  # items attempted per pass
    timeout_s: float  # a pass that runs longer is killed and counted as failed
    check: Callable[[dict, dict], tuple[int, dict]]  # (job, child output) -> (failed items, details)
    filled_cache: bool = False  # a separate process fills the series cache first


WORKLOADS = {
    "trees-n9": Workload(TREE_COUNTS_TOTAL, 90.0, check_trees),
    "collide-n5": Workload(52, 60.0, check_collide, filled_cache=True),
}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def calibrate() -> float:
    """Seconds for a fixed stdlib loop; recorded for reading, never used to scale."""
    started = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


class Runner:
    """Starts child processes for one run and keeps its time budget."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed % 2**32))

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, job: dict, timeout: float) -> dict:
        """Run ``child.py`` on ``job``; the outcome has ``elapsed_s`` and ``out`` or ``error``."""
        self.count += 1
        out_path = self.workdir / f"{self.count}.out.json"
        job_path = self.workdir / f"{self.count}.job.json"
        job = dict(job, workload=self.workload, out=str(out_path))
        job_path.write_text(json.dumps(job))
        timeout = min(timeout, self.remaining())
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(job_path), repr(spawned)],
                env=self.env,
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired:
            return {"elapsed_s": time.monotonic() - spawned, "error": f"timed out after {timeout:.0f} s"}
        elapsed = time.monotonic() - spawned
        if proc.returncode != 0 or not out_path.exists():
            return {"elapsed_s": elapsed, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
        return {"elapsed_s": elapsed, "out": json.loads(out_path.read_text())}


def run_pass(runner: Runner, w: Workload, base: dict, trace: bool) -> dict:
    """One pass, checked; a pass that crashed or timed out counts every item as failed."""
    job = dict(base, mode="pass", trace=trace)
    outcome = runner.spawn(job, w.timeout_s)
    out = outcome.get("out") or {"wall_s": outcome["elapsed_s"]}
    p = {"traced": trace, "elapsed_s": outcome["elapsed_s"], "wall_s": out["wall_s"]}
    error = outcome.get("error") or out.get("error")
    if error:
        p["failed"], p["error"] = w.items, error
    else:
        try:
            p["failed"], p["check"] = w.check(job, out)
        except (KeyError, TypeError, ValueError) as exc:  # malformed output
            p["failed"], p["error"] = w.items, f"output check failed: {exc!r}"
    p["latencies_s"] = out.get("latencies_s", [p["wall_s"]])
    for key in ("setup_s", "peak_rss_mb", "layers", "untraced"):
        if key in out:
            p[key] = out[key]
    return p


def percentile(values: list[float], p: int) -> float:
    """Harrell-Davis estimate of the ``p``-th percentile (``p`` = 100: the maximum).

    A Beta-weighted mean of all order statistics, in place of the single
    nearest-rank sample.  Item latencies fall into classes with gaps between
    them (trees of 8 and of 9 vertices, say), and a nearest rank that lands
    next to a gap jumps across it with the host's speed.
    """
    xs = sorted(values)
    n = len(xs)
    if p >= 100 or n == 1:
        return xs[-1] if p >= 100 else xs[0]
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # Simpson's rule over each order statistic's cell [i/n, (i+1)/n]
    steps = 8
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_rank(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it (100: the maximum)."""
    return math.floor(100 * (1 - 10 / n)) if n > 10 else 100


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith(".yield") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for the pass it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "kneserchrom" / "__init__.py").is_file():
        print(f"error: no kneserchrom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(args.workload, args.seed, workdir)
        calibration = [calibrate()]
        base = {"seed": args.seed}
        if w.filled_cache:
            base["cache"] = str(workdir / "filled.jsonl")
            filled = runner.spawn(dict(base, mode="fill", trace=False), w.timeout_s)
            if "error" in filled:
                print(f"error: filling the series cache failed: {filled['error']}", file=sys.stderr)
                return 1
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                outcome = runner.spawn(dict(base, mode="setup", trace=False), 30.0)
                if "out" in outcome:
                    setups.append(outcome["out"]["setup_s"])
        deadline = time.monotonic() + args.seconds
        modes = (False, True) if args.trace else (False,)
        passes: list[dict] = []
        while True:
            round_started = time.monotonic()
            for trace in modes:
                passes.append(run_pass(runner, w, base, trace))
            if any("error" in p for p in passes):
                break
            # start another round only while one as long as this ends by the deadline
            per_round = time.monotonic() - round_started
            if time.monotonic() + per_round > deadline or runner.remaining() < 2 * per_round:
                break
        calibration.append(calibrate())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = w.items * len(passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "calibration_s": calibration,
        "passes": [{k: v for k, v in p.items() if k != "latencies_s"} for p in passes],
    }
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layers = next((dict(p["layers"]) for p in traced if "layers" in p), {})
        for name in layers:
            if layer_unit(name) == "s":
                layers[name] = statistics.median(p["layers"][name] for p in traced if "layers" in p)
        layers["bench.traced_wall_s"] = statistics.median(p["wall_s"] for p in traced)
        layers["bench.trace_overhead_s"] = layers["bench.traced_wall_s"] - statistics.median(walls)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layers.items()}
        print(
            f"{args.workload} seed {args.seed}: {len(traced)} traced passes, "
            f"tracing overhead {layers['bench.trace_overhead_s']:.3f} s"
        )
    else:
        # item percentiles per pass, then the median over passes, as for wall_s
        latencies = [[s * 1000.0 for s in p["latencies_s"]] for p in plain if "error" not in p]
        latencies = latencies or [[p["wall_s"] * 1000.0] for p in plain]
        rank = tail_rank(min(len(items) for items in latencies))
        p50 = statistics.median(percentile(x, 50) for x in latencies)
        tail = statistics.median(percentile(x, rank) for x in latencies)
        setups = setups + [p["setup_s"] for p in plain if "setup_s" in p] or [0.0]
        rss = [p["peak_rss_mb"] for p in plain if "peak_rss_mb" in p] or [0.0]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "item_p50_ms": {"value": p50, "unit": "ms"},
            "item_tail_ms": {"value": tail, "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "success_rate": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
        record["item_tail"] = {"percentile": rank, "samples_per_pass": len(latencies[0]), "passes": len(latencies)}
        record["item_latencies_ms"] = latencies
        print(
            f"{args.workload} seed {args.seed}: {len(plain)} passes, "
            f"wall_s {metrics['wall_s']['value']:.3f}, "
            f"item_tail_ms is p{rank} of {len(latencies[0])} samples a pass, "
            f"calibration {calibration[0]:.3f}/{calibration[1]:.3f} s"
        )
    for p in passes:
        if "error" in p:
            print(f"pass failed: {p['error']}")
    error_rate = failed / attempted
    print(f"attempted {attempted}, failed {failed}, error_rate {error_rate:.4f}")
    record["metrics"] = metrics
    record["error_rate"] = error_rate
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

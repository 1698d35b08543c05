"""Command line interface.

Subcommands
-----------
invariant    power-sum series of a graph (graph6 in, text or JSON out)
reconstruct  rebuild a tree from a k = 2 series (JSON in)
verify       round-trip + injectivity over all free trees up to a size
collide      search all graphs for equal invariants
profile      minimum rooted degree sequence and minimum leaves of a tree

Exit codes: 0 success, 2 malformed input, 3 size cap exceeded,
4 verification found a failure.  All output is deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .catalog import (
    DEFAULT_SEED,
    SeriesCache,
    cached_psum,
    canonical_graph6,
    collide_search,
    verify_trees,
)
from .graph6 import Graph6Error, parse_graph6
from .graphs import CapExceededError, SimpleGraph, is_tree
from .kneser import PSeries
from .profiles import _least_leaves, _tree_lists
from .reconstruct import reconstruct_from_invariant


def _read_graph(arg: str | None) -> SimpleGraph:
    if arg is None or arg == "-":
        arg = sys.stdin.readline()
    return parse_graph6(arg)


def _read_text(arg: str | None) -> str:
    if arg is None or arg == "-":
        return sys.stdin.read()
    with open(arg) as fh:
        return fh.read()


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _open_cache(path: str | None) -> SeriesCache | None:
    return SeriesCache(path) if path else None


def cmd_invariant(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph6)
    series = cached_psum(g, args.k, args.coeffs, _open_cache(args.cache))
    if args.json:
        _emit_json(series.to_json_dict())
        return 0
    print(f"graph: {canonical_graph6(g)}  n={series.n}  k={series.k}  coeffs={series.coeffs}")
    print(f"terms: {len(series.terms)}")
    for cls, coeff in sorted(series.terms.items()):
        print(f"{coeff:+d}\t{' | '.join(cls)}")
    return 0


def cmd_reconstruct(args: argparse.Namespace) -> int:
    series = PSeries.from_json(_read_text(args.series))
    result = reconstruct_from_invariant(series)
    if args.json:
        data = result.to_json_dict()
        data["graph6"] = canonical_graph6(result.graph)
        _emit_json(data)
        return 0
    print(f"reconstructed: {canonical_graph6(result.graph)}")
    print(f"n: {result.graph.n}")
    print("edges: " + " ".join(f"({u},{v})" for u, v in result.graph.sorted_edges()))
    print(f"source class: {' | '.join(result.source_class)}")
    print(f"removed leaf: {result.removed_leaf}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_trees(args.nmax, witness=args.witness)
    summary = report["summary"]
    if args.json:
        records = [
            {key: value for key, value in rec.items() if key != "ms"}
            for rec in report["records"]
        ]
        _emit_json({"summary": summary, "records": records})
    else:
        for rec in report["records"]:
            status = "ok" if rec["pass"] else "FAIL"
            extra = ""
            if "witness_ok" in rec:
                extra = f" witness={'ok' if rec['witness_ok'] else 'FAIL'}"
            print(
                f"n={rec['n']} {rec['graph6']} classes={rec['lambda_t_size']}"
                f" profile=({','.join(map(str, rec['min_profile']))})"
                f" -> {rec['reconstructed']} {status}{extra}"
            )
        print(
            f"summary: trees={summary['trees']} failures={summary['failures']}"
            f" injective={'yes' if summary['injective'] else 'NO'}"
            f" all={'PASS' if summary['all_pass'] else 'FAIL'}"
        )
    return 0 if summary["all_pass"] else 4


def cmd_collide(args: argparse.Namespace) -> int:
    report = collide_search(
        args.nmax, args.k, seed=args.seed, cache=_open_cache(args.cache)
    )
    if args.json:
        _emit_json(report)
        return 0
    summary = report["summary"]
    print(
        f"graphs={summary['graphs']} (n<={summary['n_max']}, k={summary['k']},"
        f" seed={summary['seed']})"
    )
    for entry in report["collisions"]:
        print(f"collision: n={entry['n']} {entry['graph6_a']} == {entry['graph6_b']}")
    for entry in report["fingerprint_collisions"]:
        print(
            f"fingerprint clash: n={entry['n']} {entry['graph6_a']} vs"
            f" {entry['graph6_b']} (series differ)"
        )
    print(
        f"collisions: {summary['collisions']}"
        f"  fingerprint clashes: {summary['fingerprint_collisions']}"
    )
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph6)
    if not is_tree(g):
        raise ValueError("profile is defined for trees")
    # one minimum-leaf pass gives the leaves and the rooting at the first
    ro, leaves = _least_leaves(_tree_lists(g))
    profile = ro.profile
    if args.json:
        _emit_json(
            {
                "graph6": canonical_graph6(g),
                "n": g.n,
                "min_profile": list(profile),
                "min_leaves": leaves,
                "rooted_order": list(ro.order),
            }
        )
        return 0
    print(f"graph: {canonical_graph6(g)}  n={g.n}")
    print("min profile: " + " ".join(map(str, profile)))
    print("min leaves: " + " ".join(map(str, leaves)))
    print(f"rooted order (root {leaves[0]}): " + " ".join(map(str, ro.order)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kneserchrom",
        description="Block-multiset chromatic invariants of small graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariant", help="power-sum series of a graph")
    p_inv.add_argument("graph6", nargs="?", help="graph6 string (default: stdin)")
    p_inv.add_argument("--k", type=int, choices=(1, 2), default=2)
    p_inv.add_argument(
        "--coeffs",
        choices=("witness", "indicator"),
        default="witness",
        help="witness: true expansion; indicator: signed subgraph counts",
    )
    p_inv.add_argument("--cache", help="JSONL cache file to reuse and extend")
    p_inv.add_argument("--json", action="store_true", help="emit JSON")
    p_inv.set_defaults(func=cmd_invariant)

    p_rec = sub.add_parser("reconstruct", help="rebuild a tree from a k=2 series")
    p_rec.add_argument("series", nargs="?", help="series JSON file (default: stdin)")
    p_rec.add_argument("--json", action="store_true", help="emit JSON")
    p_rec.set_defaults(func=cmd_reconstruct)

    p_ver = sub.add_parser("verify", help="tree round-trip and injectivity check")
    p_ver.add_argument("--nmax", type=int, default=7, help="largest tree size")
    p_ver.add_argument(
        "--witness",
        action="store_true",
        help="also check the position-map witness per tree",
    )
    p_ver.add_argument("--json", action="store_true", help="emit JSON")
    p_ver.set_defaults(func=cmd_verify)

    p_col = sub.add_parser("collide", help="search graphs for equal invariants")
    p_col.add_argument("--nmax", type=int, default=5, help="largest graph size")
    p_col.add_argument("--k", type=int, choices=(1, 2), default=2)
    p_col.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_col.add_argument("--cache", help="JSONL cache file to reuse and extend")
    p_col.add_argument("--json", action="store_true", help="emit JSON")
    p_col.set_defaults(func=cmd_collide)

    p_pro = sub.add_parser("profile", help="minimum rooted degree sequence of a tree")
    p_pro.add_argument("graph6", nargs="?", help="graph6 string (default: stdin)")
    p_pro.add_argument("--json", action="store_true", help="emit JSON")
    p_pro.set_defaults(func=cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (Graph6Error, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Collision search: where k = 1 fails and k = 2 does not.

Two non-isomorphic graphs can share their k = 1 invariant — the classical
counterexample pair on five vertices appears below.  The k = 2 invariant
separates every pair of graphs with up to five vertices, which the test
suite checks; a recorded run of ``kneserchrom collide --nmax 6 --k 2``
extends this to all 208 graphs with up to six vertices.

Deciding equality takes care.  Random evaluations on up to six symbols are
a sound prefilter (equal invariants evaluate equally), but two invariants
can agree on every low-symbol value map and still differ: the difference
may live in disjoint-support classes spreading over more symbols.  Exact
comparison therefore converts each series to the *disjoint-support basis*
(coefficients = counts of proper assignments onto a fixed representative),
which is canonical — equal vectors there mean equal functions.
"""

from kneserchrom import (
    collide_search,
    direct_eval,
    kneser_psum,
    parse_graph6,
    pseries_eval,
    random_values,
    true_basis,
)


def main():
    # --- k = 1: the classical collision ----------------------------------
    result = collide_search(5, 1)
    print(f"k=1, all {result['summary']['graphs']} graphs with n <= 5:")
    for entry in result["collisions"]:
        print(
            f"  collision: {entry['graph6_a']} and {entry['graph6_b']}"
            f" (identical series: {entry['representation_equal']})"
        )

    # --- k = 2: no collisions, but fingerprint clashes -------------------
    result = collide_search(5, 2)
    s = result["summary"]
    print(f"\nk=2, same graphs: {s['collisions']} collisions,"
          f" {s['fingerprint_collisions']} low-symbol clashes")

    # --- anatomy of one clash --------------------------------------------
    a = parse_graph6("DR[")
    b = parse_graph6("Dr[")
    sa, sb = kneser_psum(a, 2), kneser_psum(b, 2)
    print("\nthe pair DR[ / Dr[ agrees on every value map with m <= 6 symbols:")
    for m in (4, 5, 6):
        vals = random_values(2, m, seed=5)
        print(f"  m={m}: {pseries_eval(sa, m, vals)} == {pseries_eval(sb, m, vals)}")

    ta, tb = true_basis(sa), true_basis(sb)
    diff = sorted(c for c in set(ta) | set(tb) if ta.get(c) != tb.get(c))
    print(f"\nbut their disjoint-support vectors differ in {len(diff)} classes:")
    for cls in diff:
        symbols = sum(int(part.split(":")[0]) for part in cls)
        print(f"  {symbols} symbols: {' | '.join(cls)}  ({ta.get(cls, 0)} vs {tb.get(cls, 0)})")

    vals = random_values(2, 7, seed=5)
    print(f"\nand indeed they differ at m=7: "
          f"{direct_eval(a, 2, 7, vals)} != {direct_eval(b, 2, 7, vals)}")


if __name__ == "__main__":
    main()

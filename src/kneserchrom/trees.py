"""Algorithms on centre-rooted AHU tree codes.

A tree is named up to isomorphism by its AHU code (Aho, Hopcroft and
Ullman) rooted at its centre.  ``graphs`` holds the builder (``_tree_code``),
the decoder (``_code_adjacency``) and the one centre rule (``_centre_rooted``),
which re-roots the tree classes here too.  This module holds the tree
classes of a tree (λ_T), by a dynamic programme over its code, or of any
graph from its series; their minimum rooted degree profiles, read off the
code's adjacency lists; and the minimal-profile classes that
reconstruction deletes a leaf from.  A code reaches the canonical search
only through ``graphs._tree_form``, once per distinct tree.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import (
    CapExceededError,
    SimpleGraph,
    _centre_rooted,
    _check_vertex_cap,
    _code_adjacency,
    _code_children,
    _tree_code,
    _tree_form,
    is_tree,
    parse_form,
)
from .profiles import _least_leaves

#: tree-class extraction for a tree is capped here
LAMBDA_T_CAP = 9

TreeClasses = frozenset[tuple[str, ...]]


def _check_tree_cap(n: int, what: str) -> None:
    """Refuse ``what`` on trees with n vertices above ``LAMBDA_T_CAP``."""
    if n > LAMBDA_T_CAP:
        raise CapExceededError(f"{what} capped at {LAMBDA_T_CAP} vertices (got {n})")


def _form_code(form: str) -> str | None:
    """The centre-rooted code of the tree a form string names, or None when
    it names no tree.  A form on more than ``VERTEX_CAP`` symbols raises
    ``CapExceededError`` before any code is built: ``canonical_form`` could
    not name it."""
    n, pairs = parse_form(form)
    _check_vertex_cap(n, "tree classes")
    return _tree_code(n, pairs) if all(len(p) == 2 for p in pairs) else None


# ---------------------------------------------------------------------------
# the tree classes of a tree
# ---------------------------------------------------------------------------


def _series_tree_codes(series) -> frozenset[str]:
    """Centre-rooted codes of the support classes of one component whose
    symbol graph is a tree on n + 1 symbols, for a k = 2 ``PSeries``."""
    return frozenset(
        code
        for cls in series.terms
        if len(cls) == 1
        and (code := _form_code(cls[0])) is not None
        and code.count("(") == series.n + 1
    )


def _lambda_t_codes(g: SimpleGraph) -> frozenset[str] | None:
    """Centre-rooted AHU codes of the tree classes of a tree G, or None
    when G is not a tree (see ``_code_lambda_t``).  Raises
    ``CapExceededError`` for a tree above ``LAMBDA_T_CAP`` vertices before
    its code is built."""
    if not is_tree(g):
        return None
    _check_tree_cap(g.n, "tree-class extraction")
    return _code_lambda_t(_tree_code(g.n, g.edges))


def _code_lambda_t(code: str) -> frozenset[str]:
    """Centre-rooted AHU codes of the tree classes of the tree whose
    centre-rooted code is ``code``; the caller has checked the cap.

    Only the full edge set of a tree can contribute a connected class, so
    the tree classes are the admissible ones.  Root G anywhere and give the
    root the block {0, 1}; every other vertex gets {s, t} with s a symbol
    of its parent's block and t a new symbol.  These fills are admissible
    by construction, and every tree class arises as one, from any root:
    each block meets its parent's block, and n blocks spanning a tree on
    n + 1 symbols each add exactly one new symbol.

    The 2^(n-1) fills are not built.  G is rooted at its centre, and a
    dynamic programme over its code collects what each vertex's
    descendants can hang at the two symbols of its block (``_side_pairs``).
    What a subtree hangs at its parent's symbol depends only on the
    subtree's shape, so ``_hangs`` caches it by the subtree's rooted code in
    a bounded ``lru_cache`` of 4096 entries; all 95 trees inside the cap
    need only 24 rooted shapes.  The root's pairs, the largest sets, are
    computed uncached, and since the root block's two symbols are
    interchangeable each unordered pair of sides is kept once.  A root pair
    names the symbol tree rooted at one symbol of {0, 1}, the other its last
    child; ``_centre_rooted`` re-roots that code in place at its centre, so
    one code names one class.
    """
    return frozenset(
        _centre_rooted("(" + "".join(a) + "(" + "".join(b) + "))")
        for a, b in _side_pairs(_code_children(code), mirrored=True)
    )


def _side_pairs(
    child_codes: list[str], mirrored: bool = False
) -> set[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Below a vertex with block {shared, new} whose children have the
    rooted codes ``child_codes``: every (codes hanging at new, codes hanging
    at shared) that some fill of the subtrees yields, each side sorted.

    Each child takes one of the two symbols as its own shared symbol and
    hangs there what ``_hangs`` says it can.  Both choices are open to
    every child, so a pair's mirror is reachable whenever the pair is; with
    ``mirrored`` each pair is kept once, as (lesser side, greater side)."""
    pairs = {((), ())}
    for child in child_codes:
        hangs = _hangs(child)
        pairs = {
            (a, b) if not mirrored or a <= b else (b, a)
            for new, shared in pairs
            for h in hangs
            for a, b in (
                (tuple(sorted(new + h)), shared),
                (new, tuple(sorted(shared + h))),
            )
        }
    return pairs


@lru_cache(maxsize=1 << 12)
def _hangs(code: str) -> frozenset[tuple[str, ...]]:
    """The sorted codes a vertex with rooted code ``code`` and its subtree
    can hang at the symbol its block shares with its parent's: what its
    children hang there, plus its own new symbol with what they hang at
    that."""
    return frozenset(
        tuple(sorted(shared + ("(" + "".join(new) + ")",)))
        for new, shared in _side_pairs(_code_children(code))
    )


# ---------------------------------------------------------------------------
# minimal-profile classes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 12)
def _code_profile(code: str) -> tuple[int, ...]:
    """Minimum rooted degree sequence of the tree a centre-rooted code names,
    read off the code's adjacency lists.

    Profiles are isomorphism-invariant, so the code's preorder numbering
    serves.  Cached by code in a bounded ``lru_cache`` of 4096 entries, so
    each distinct tree is profiled once per process; at ``LAMBDA_T_CAP`` it
    holds the 200 tree classes of all 95 trees."""
    return _least_leaves(_code_adjacency(code))[0].profile


def _minimal_tree_classes(codes) -> tuple[TreeClasses, tuple[int, ...]]:
    """The classes of the centre-rooted tree codes of lexicographically
    least profile, named by their class forms, and that profile;
    ``ValueError`` when there are none."""
    profiled = {code: _code_profile(code) for code in codes}
    if not profiled:
        raise ValueError("no tree classes to reconstruct from")
    best = min(profiled.values())
    return frozenset((_tree_form(c)[0],) for c, p in profiled.items() if p == best), best


def _minimal_profile(classes) -> tuple[TreeClasses, tuple[int, ...]]:
    """The tree classes of lexicographically least profile, named by their
    canonical forms however ``classes`` spells them, and that profile.

    Raises ``ValueError`` unless ``classes`` is a non-empty iterable of
    single tree classes on one symbol count of at least two, and
    ``CapExceededError`` for a class on more than ``VERTEX_CAP`` symbols."""
    codes = set()
    for cls in map(tuple, classes):
        code = _form_code(cls[0]) if len(cls) == 1 else None
        if code in (None, "()"):  # a tree class has at least two symbols
            raise ValueError(f"{cls!r} is not a single tree class")
        codes.add(code)
    if len({code.count("(") for code in codes}) > 1:
        raise ValueError("tree classes on different symbol counts")
    return _minimal_tree_classes(codes)

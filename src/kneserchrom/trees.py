"""Algorithms on centre-rooted AHU tree codes.

A tree is named up to isomorphism by its AHU code (Aho, Hopcroft and
Ullman) rooted at its centre, built in linear time by ``graphs._tree_code``
and decoded by ``graphs._code_adjacency``.  This module reads and builds
such codes: the tree classes of a tree (λ_T) by a dynamic programme over
its code or of any graph from its series, their minimum rooted degree
profiles read off the code's adjacency lists, and the minimal-profile
classes that reconstruction deletes a leaf from.  A code reaches the
canonical search only through ``graphs._tree_form``, once per distinct tree.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import (
    VERTEX_CAP,
    CapExceededError,
    SimpleGraph,
    _centre_code,
    _code_adjacency,
    _tree_code,
    _tree_form,
    parse_form,
)
from .profiles import _adjacency_rootings

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
    if n > VERTEX_CAP:
        raise CapExceededError(f"tree classes capped at {VERTEX_CAP} symbols (got {n})")
    return _tree_code(n, pairs) if all(len(p) == 2 for p in pairs) else None


def _code_children(code: str) -> list[str]:
    """The codes of the root's children in a rooted AHU code, left to right."""
    children: list[str] = []
    depth, start = 0, 1
    for i in range(1, len(code) - 1):
        depth += 1 if code[i] == "(" else -1
        if depth == 0:
            children.append(code[start : i + 1])
            start = i + 1
    return children


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
    when G is not a tree.

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
    computed uncached.  Each root pair names the symbol tree rooted at the
    edge {0, 1}; ``_centre_rooted`` re-roots it at its centre, so one code
    names one class.  Raises ``CapExceededError`` for a tree above
    ``LAMBDA_T_CAP`` vertices.
    """
    code = _tree_code(g.n, g.edges)
    if code is None:
        return None
    _check_tree_cap(g.n, "tree-class extraction")
    codes = set()
    for a, b in _side_pairs(_code_children(code)):
        # the lesser side roots the code, so a pair and its mirror agree
        x, y = sorted(("(" + "".join(a) + ")", "(" + "".join(b) + ")"))
        codes.add(x[:-1] + y + ")")
    return frozenset(map(_centre_rooted, codes))


def _side_pairs(child_codes: list[str]) -> set[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Below a vertex with block {shared, new} whose children have the
    rooted codes ``child_codes``: every (codes hanging at new, codes hanging
    at shared) that some fill of the subtrees yields, each side sorted.

    Each child takes one of the two symbols as its own shared symbol and
    hangs there what ``_hangs`` says it can."""
    pairs = {((), ())}
    for child in child_codes:
        hangs = _hangs(child)
        pairs = {
            pair
            for new, shared in pairs
            for h in hangs
            for pair in (
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


@lru_cache(maxsize=1 << 14)
def _centre_rooted(code: str) -> str:
    """The centre-rooted code of the tree a rooted AHU code names, cached
    in a bounded ``lru_cache`` of 16 384 entries."""
    return _centre_code(_code_adjacency(code))


# ---------------------------------------------------------------------------
# minimal-profile classes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 12)
def _code_profile(code: str) -> tuple[int, ...]:
    """Minimum rooted degree sequence of the tree a centre-rooted code names,
    read off the code's adjacency lists.

    Profiles are isomorphism-invariant, so the code's preorder numbering
    serves.  Cached by code in a bounded ``lru_cache`` of 4096 entries, so
    each distinct tree is profiled once per process."""
    return _adjacency_rootings(_code_adjacency(code))[0].profile


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
    single tree classes on one symbol count, and ``CapExceededError`` for a
    class on more than ``VERTEX_CAP`` symbols."""
    codes = set()
    for cls in map(tuple, classes):
        code = _form_code(cls[0]) if len(cls) == 1 else None
        if code is None:
            raise ValueError(f"{cls!r} is not a single tree class")
        codes.add(code)
    if len({code.count("(") for code in codes}) > 1:
        raise ValueError("tree classes on different symbol counts")
    return _minimal_tree_classes(codes)

"""The package namespace: ``__all__`` names every public export, no module
of the package or the tests imports a name it never uses, only ``graphs``
and ``trees`` decode or slice a tree code, only ``graphs._tree_code`` builds
one from a labelled tree, ``catalog`` and ``cli`` hold no size cap of their
own, no module-level cache of the package grows without bound, no package
check is an ``assert`` that ``python -O`` would strip, and every name the
benchmark traces still exists."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import kneserchrom

TESTS = Path(__file__).resolve().parent
PACKAGE = Path(kneserchrom.__file__).resolve().parent
BENCH_CHILD = TESTS.parent / "bench" / "child.py"


def test_all_matches_public_names():
    public = {
        name
        for name, value in vars(kneserchrom).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(kneserchrom.__all__) == public
    # test-only helpers live in tests/oracles.py, not in the package
    for name in ("prufer_tree",):
        assert not hasattr(kneserchrom, name) and not hasattr(kneserchrom.generate, name)
    for name in (
        "lambda_support",
        "SupportReport",
        "admissible_for_subgraph",
        "enumerate_admissible_classes",
    ):
        assert not hasattr(kneserchrom, name) and not hasattr(kneserchrom.kneser, name)


#: helpers that decode or slice a tree code, and the modules that may call them
CODE_HELPERS = {"_code_adjacency", "_centre_code", "_code_children"}
CODE_MODULES = {"graphs.py", "trees.py"}


def test_tree_code_helpers_stay_in_graphs_and_trees():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in CODE_HELPERS:
                    callers.add(path.name)
    assert callers and callers <= CODE_MODULES


def test_centre_code_has_one_builder():
    # codes are built by graphs._tree_code; trees._centre_rooted re-roots a
    # rooted code it decoded, and nothing else calls _centre_code
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers += [
                    f"{path.stem}.{func.name}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "_centre_code"
                ]
    assert sorted(callers) == ["graphs._tree_code", "trees._centre_rooted"]


#: modules that refuse oversized input only through the owning module's checks
DRIVER_MODULES = ("catalog.py", "cli.py")


def test_drivers_hold_no_cap_of_their_own():
    # a driver that raises CapExceededError or imports a *_CAP constant
    # re-derives a cap that kneser.py or trees.py already checks
    found = []
    for name in DRIVER_MODULES:
        path = PACKAGE / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", getattr(exc, "attr", None)) == "CapExceededError":
                    found.append(f"{name}:{node.lineno} raises CapExceededError")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.endswith("_CAP")
                ]
    assert found == []


def unused_imports(path: Path) -> list[str]:
    """Module-level imports of ``path`` bound to a name the module never reads.

    Names listed in the module's ``__all__`` are re-exports, and
    ``from __future__`` imports are compiler directives, so both are exempt.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        unused += [
            f"{path.name}:{node.lineno} {name}"
            for name in names
            if name not in used and name not in exported
        ]
    return unused


def test_no_unused_module_imports():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(paths) > 10
    assert [u for path in paths for u in unused_imports(path)] == []


def unbounded_caches(path: Path) -> list[str]:
    """Module-level functions of ``path`` cached without an integer bound.

    A ``cache``, or an ``lru_cache`` whose ``maxsize`` is missing or does not
    evaluate to an integer in the module's namespace, is flagged: it could
    hold its entries for the life of the process.  A cache nested inside a
    function lives for one call, so it is exempt.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    module = "kneserchrom" if path.stem == "__init__" else f"kneserchrom.{path.stem}"
    flagged = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for dec in node.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            func = call.func if call else dec
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name not in ("cache", "lru_cache"):
                continue
            bound = None
            if call and name == "lru_cache":
                given = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args
                if given:
                    expr = compile(ast.Expression(given[0]), str(path), "eval")
                    bound = eval(expr, vars(importlib.import_module(module)))
            if type(bound) is not int:
                flagged.append(f"{path.name}:{node.lineno} {node.name}")
    return flagged


def test_module_caches_are_bounded():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    assert [f for path in paths for f in unbounded_caches(path)] == []


def invariant_asserts(path: Path) -> list[str]:
    """``assert`` statements of ``path`` that do more than narrow a type.

    ``python -O`` strips every ``assert``, so a check the package relies on
    must raise instead.  Only ``assert isinstance(...)`` and
    ``assert x is not None``, which inform type checkers, are exempt.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    flagged = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assert):
            continue
        test = node.test
        is_isinstance = (
            isinstance(test, ast.Call)
            and isinstance(test.func, ast.Name)
            and test.func.id == "isinstance"
        )
        is_not_none = (
            isinstance(test, ast.Compare)
            and [type(op) for op in test.ops] == [ast.IsNot]
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        )
        if not (is_isinstance or is_not_none):
            flagged.append(f"{path.name}:{node.lineno}")
    return flagged


def test_invariant_checks_are_not_asserts():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 5
    assert [f for path in paths for f in invariant_asserts(path)] == []


def bench_child_value(name: str) -> ast.expr:
    """The expression ``bench/child.py`` assigns to ``name`` at module level."""
    tree = ast.parse(BENCH_CHILD.read_text(), filename=str(BENCH_CHILD))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{BENCH_CHILD.name} assigns no {name}")


def test_bench_traced_names_resolve():
    # the bench reports a renamed target as untraced and its metrics as 0,
    # so the names it reads are checked here, without importing the script
    targets = ast.literal_eval(bench_child_value("TARGETS"))
    assert targets
    missing = []
    for module, attr, _span in targets:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    lookups = [
        node for node in ast.walk(bench_child_value("CACHES")) if isinstance(node, ast.Call)
    ]
    assert lookups
    for call in lookups:
        module, name = call.args[0].id, ast.literal_eval(call.args[1])
        fn = getattr(importlib.import_module(f"kneserchrom.{module}"), name, None)
        info = getattr(fn, "cache_info", None)
        if not (callable(info) and type(info().maxsize) is int):
            missing.append(f"kneserchrom.{module}.{name} (lru_cache)")
    assert missing == []

"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minorrel"


def unused_imports(source):
    """Names bound by import statements in source that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import os, sys\nfrom a import b as c, d\nfrom . import e\nprint(sys, c.x)\n"
    assert unused_imports(source) == [(1, "os"), (2, "d"), (3, "e")]


def test_package_has_no_unused_imports():
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_layer_functions_stay_where_the_tracer_wraps_them():
    # perfbench wraps ReesEngine's methods on the class, and rank_mod and
    # poly_mul in every package module other than their own that binds them
    import importlib
    import pkgutil

    import minorrel
    from minorrel.rees import ReesEngine

    assert {"kernel_block", "min_gens"} <= set(ReesEngine.__dict__)
    modules = [
        importlib.import_module(f"minorrel.{info.name}")
        for info in pkgutil.iter_modules(minorrel.__path__)
    ]
    for owner, name in (("modlinalg", "rank_mod"), ("polyring", "poly_mul")):
        fn = getattr(importlib.import_module(f"minorrel.{owner}"), name)
        binders = [
            mod.__name__
            for mod in modules
            if mod.__name__ != f"minorrel.{owner}" and getattr(mod, name, None) is fn
        ]
        assert binders == ["minorrel.rees", "minorrel.witness"], name

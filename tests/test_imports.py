"""Every name a package module imports is used in that module."""

import ast
import inspect
import os
import subprocess
import sys
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
    # perfbench wraps ReesEngine's methods on the class, and rank_mod,
    # nullspace_mod, poly_mul, schur_multiply and plethysm_schur in every
    # package module other than their own that binds them; a name that no
    # such module binds makes every traced pass raise
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
    assert minorrel.rees.nullspace_mod is minorrel.modlinalg.nullspace_mod
    for name in ("schur_multiply", "plethysm_schur"):
        fn = getattr(importlib.import_module("minorrel.symfunc"), name)
        binders = {mod.__name__ for mod in modules if getattr(mod, name, None) is fn}
        assert {"minorrel.birep", "minorrel.bott"} <= binders, name
    # bott's layers are wrapped in bott itself, so they must be plain
    # module-level functions there, and tasks must call them through the module
    from minorrel import bott, tasks

    for name in ("verify_lemma_4_4", "tor_geometric", "bott_projective"):
        fn = getattr(bott, name)
        assert inspect.isfunction(fn) and fn.__module__ == "minorrel.bott", name
    assert tasks.bott is bott
    assert not hasattr(tasks, "verify_lemma_4_4")


def test_traced_layers_keep_their_parameter_order():
    # perfbench's tracer reads these arguments by position: the factors of
    # poly_mul as args[1] and args[2], and the prime of rank_mod and
    # nullspace_mod as args[1] and args[2]
    from minorrel.modlinalg import nullspace_mod, rank_mod
    from minorrel.polyring import poly_mul

    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(poly_mul) == ["ctx", "f", "g"]
    assert names(rank_mod) == ["rows", "p", "stop"]
    assert names(nullspace_mod) == ["rows", "ncols", "p"]


def unreached_definitions(sources):
    """Top-level names defined in sources that no other top-level statement reads.

    sources maps a module name to its text.  A definition counts as reached
    when its name is read, as a name or an attribute, by some top-level
    statement other than the one that defines it, in any of the modules;
    dunder names such as __version__ are read by tools and are left out.
    """
    statements = []
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                defined = set()
            read = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    read.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    read.add(sub.attr)
            statements.append((defined, read))
    unreached = set()
    for i, (defined, _) in enumerate(statements):
        for name in defined:
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(name in read for j, (_, read) in enumerate(statements) if j != i):
                unreached.add(name)
    return unreached


def test_unreached_definitions_are_found():
    sources = {
        "a": "X = 1\ndef f():\n    return f()\ndef g():\n    return X\n__version__ = '1'\n",
        "b": "from a import g\ng()\nclass C:\n    pass\n",
    }
    assert unreached_definitions(sources) == {"f", "C"}


def test_every_package_definition_is_reached_from_the_package():
    # Code that only the tests reach belongs in tests/.  The one leftover is
    # birep.character_from_weight_dims, which waits for the witnesses to
    # return characters (ROADMAP item 3); that item shrinks this set, and
    # nothing may be added to it.
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreached_definitions(sources) == {"character_from_weight_dims"}


def test_a_fresh_process_loads_no_dataclasses_or_openssl():
    # dataclasses pulls in inspect, ast, dis and tokenize, and hashlib loads
    # OpenSSL; only the results cache hashes, so neither belongs in a cold start
    code = (
        "import sys, minorrel.tasks, minorrel.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'hashlib', '_hashlib'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"

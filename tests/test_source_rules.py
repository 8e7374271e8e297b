"""Checks on the package source itself."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gcwidth").glob("*.py"))


def test_no_runtime_assert():
    # `python -O` strips assert statements, so checks must raise explicitly
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert SOURCES and not found, f"assert statements in src: {found}"


def _read_names(node) -> set[str]:
    """The names loaded and the attributes read anywhere under node."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)}


def test_no_dead_private_helpers():
    # a module-level _name function or class that no other top-level statement in src reads is dead code
    statements = [(path, stmt) for path in SOURCES for stmt in ast.parse(path.read_text(), str(path)).body]
    reads = [(stmt, _read_names(stmt)) for _, stmt in statements]
    dead = [
        f"{path.name}:{stmt.name}"
        for path, stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_")
        and not any(stmt.name in names for other, names in reads if other is not stmt)
    ]
    assert statements and not dead, f"private helpers read nowhere else in src: {dead}"


def test_ascii_decimal_read_only_in_graphs():
    # graphs.py holds the one token codec; a module that imports or reads _ascii_decimal would start a second one
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        if path.name != "graphs.py" and "_ascii_decimal" in _read_names(tree) | imported:
            found.append(path.name)
    assert SOURCES and not found, f"_ascii_decimal read outside graphs.py: {found}"


# Public functions that no other statement in src reads, each with the reason it stays.
UNREAD_ALLOWED = {
    "serialize_pathdecomp": "writes bag files; perfbench writes its inputs with it",
}


def test_no_unread_public_functions():
    # a public top-level function that nothing else in src reads is dead code or belongs on the allow-list
    statements = [(path, stmt) for path in SOURCES if path.name != "__init__.py"
                  for stmt in ast.parse(path.read_text(), str(path)).body]
    reads = [(stmt, _read_names(stmt)) for _, stmt in statements]
    unread = {
        stmt.name
        for _, stmt in statements
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
        and not any(stmt.name in names for other, names in reads if other is not stmt)
    }
    assert unread - UNREAD_ALLOWED.keys() == set(), "public functions read nowhere else in src"
    assert UNREAD_ALLOWED.keys() - unread == set(), "stale allow-list entries"


# Methods that no other statement in src reads, each with the reason it stays.
UNREAD_METHODS_ALLOWED: dict[str, str] = {}


def test_no_unread_methods():
    # a method of a src class that nothing else in src reads is dead code or belongs on the allow-list;
    # dunders run implicitly
    modules = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    # top-level statements, with each class split into its body statements
    units = [unit for module in modules for stmt in module.body
             for unit in (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])]
    reads = [(unit, _read_names(unit)) for unit in units]
    unread = {
        f"{cls.name}.{fn.name}"
        for module in modules
        for cls in module.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
        and not any(fn.name in names for other, names in reads if other is not fn)
    }
    assert unread - UNREAD_METHODS_ALLOWED.keys() == set(), "methods read nowhere else in src"
    assert UNREAD_METHODS_ALLOWED.keys() - unread == set(), "stale allow-list entries"


# Self-recursive functions allowed in src, each with the bound on its depth.
RECURSION_ALLOWED = {
    "_max_independent_set.solve": "at most the maximum matching size",
    "gen_gk": "k <= 5",
    "decompose_tdelta.split": "at most t",
}


def _self_recursive(node, prefix=""):
    """Dotted names of the functions under node that call themselves by name."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            callees = {c.func.id for c in ast.walk(child) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
            if isinstance(child, ast.FunctionDef) and child.name in callees:
                yield name
            name += "."
        yield from _self_recursive(child, name)


def test_no_unbounded_recursion():
    # deep inputs (long paths, large trees) must not raise RecursionError
    found = {name for path in SOURCES for name in _self_recursive(ast.parse(path.read_text(), str(path)))}
    assert found - RECURSION_ALLOWED.keys() == set(), "recursive functions without a depth bound"
    assert RECURSION_ALLOWED.keys() - found == set(), "stale allow-list entries"

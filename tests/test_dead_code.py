"""Static checks that deletions leave nothing dead behind in the package.

Every import a package or test module makes must be used in that module,
and every module-level `_private` function or class, and every `_private`
method of a class, must be referenced somewhere in `src/netquery`; tests do
not count as callers.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import netquery

PACKAGE = Path(netquery.__file__).resolve().parent
TREES = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}
TEST_TREES = {
    f"tests/{p.name}": ast.parse(p.read_text(), str(p))
    for p in sorted(Path(__file__).resolve().parent.glob("*.py"))
}


def _names_used(tree: ast.AST) -> set[str]:
    """Bare names a tree reads, including those inside quoted annotations
    and the strings of `__all__`."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return used


def _references(tree: ast.AST) -> set[str]:
    """Names a tree reads, as bare names, attributes or imported names."""
    refs = _names_used(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {a.name for a in node.names}
    return refs


def test_no_unused_imports():
    unused = []
    for name, tree in {**TREES, **TEST_TREES}.items():
        used = _names_used(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    bound = a.asname or a.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_no_unreferenced_private_definitions():
    # A definition's references to itself (recursion) do not count.
    stmts = [(name, node) for name, tree in TREES.items() for node in tree.body]
    refs = {id(node): _references(node) for _, node in stmts}
    unreferenced = [
        f"{name}: {node.name}"
        for name, node in stmts
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(
            node.name in refs[id(other)] for _, other in stmts if other is not node
        )
    ]
    assert unreferenced == []


def _reads(tree: ast.AST) -> Counter[str]:
    """How often a tree reads each name, bare or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load)
    )


def test_no_unreferenced_private_methods():
    # A method's reads of its own name (recursion, super() calls) do not count.
    reads = sum((_reads(tree) for tree in TREES.values()), Counter())
    unreferenced = [
        f"{name}: {cls.name}.{meth.name}"
        for name, tree in TREES.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for meth in cls.body
        if isinstance(meth, ast.FunctionDef)
        and meth.name.startswith("_")
        and not meth.name.startswith("__")
        and reads[meth.name] == _reads(meth)[meth.name]
    ]
    assert unreferenced == []

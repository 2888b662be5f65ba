"""Static checks that deletions leave nothing dead behind in the package.

Every import a package or test module makes must be used in that module,
and every module-level `_private` function or class, and every `_private`
method of a class, must be referenced somewhere in `src/netquery`; tests do
not count as callers.  Every parameter of a package function must be read,
and every module must stay small enough to compile without growing the
parser's token array.
"""
from __future__ import annotations

import ast
import tokenize
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



def _params(d: ast.FunctionDef) -> list[str]:
    a = d.args
    rest = [v for v in (a.vararg, a.kwarg) if v is not None]
    every = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + rest]
    return [p for p in every if p not in ("self", "cls")]


def _bare_reads(tree: ast.AST) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_no_unread_parameters():
    # A parameter counts as read when some package definition of the same
    # name that takes it reads it, so an override may ignore what another
    # one needs.  A method's receiver and the NodeEngine interface are
    # exempt: an engine takes what the simulator passes.
    engine = next(
        node
        for node in ast.walk(TREES["simnet.py"])
        if isinstance(node, ast.ClassDef) and node.name == "NodeEngine"
    )
    exempt = {m.name for m in engine.body if isinstance(m, ast.FunctionDef)}
    defs: dict[str, list[ast.FunctionDef]] = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name not in exempt:
                defs.setdefault(node.name, []).append(node)
    unread = sorted(
        {
            f"{name}({p})"
            for name, group in defs.items()
            for d in group
            for p in _params(d)
            if not any(p in _params(e) and p in _bare_reads(e) for e in group)
        }
    )
    assert unread == []


# CPython's parser doubles its token array past this many tokens when it
# compiles a module from source, which raises the peak memory of every
# process that imports the package.
TOKEN_LIMIT = 8192


def test_modules_stay_below_the_token_limit():
    """Every package module tokenizes, comments and blank lines aside, to
    fewer than TOKEN_LIMIT tokens."""
    over = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with path.open("rb") as f:
            count = sum(
                1
                for tok in tokenize.tokenize(f.readline)
                if tok.type not in (tokenize.COMMENT, tokenize.NL)
            )
        if count >= TOKEN_LIMIT:
            over[path.name] = count
    assert over == {}

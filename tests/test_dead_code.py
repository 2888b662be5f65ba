"""Static checks that deletions leave nothing dead behind in the package.

Every import a package or test module makes must be used in that module,
and no package module assigns `__all__`, so a name imported only to
re-export it counts as unused.  Every module-level `_private` function or class, and every `_private`
method of a class, must be referenced somewhere in `src/netquery`; tests do
not count as callers.  Every public module-level function or class must be
referenced by the package or by `bench/`, so what only the tests read lives
in the tests.  Every parameter of a package function must be read,
and every module must stay small enough to compile without growing the
parser's token array.  Every name `bench/layers.py` counts or wraps must be
defined in the package.  The package's self-recursive functions over a
formula are a fixed list, so a new hand-written walk is a deliberate choice.
"""
from __future__ import annotations

import ast
import importlib
import operator
import re
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
    """Bare names a tree reads, including those inside quoted annotations."""
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


BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_TREES = [
    ast.parse(p.read_text(), str(p))
    for p in sorted(BENCH.glob("*.py"))
    if not p.name.startswith("test_")
]


def test_no_module_assigns_all():
    # Without `__all__`, a name imported only to re-export it is unused.
    assigned = [
        name
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and isinstance(node.ctx, ast.Store)
        and node.id == "__all__"
    ]
    assert assigned == []


def test_no_public_definition_only_the_tests_read():
    # A definition's references to itself do not count; a reference from
    # another statement of its own module does.
    stmts = [(name, node) for name, tree in TREES.items() for node in tree.body]
    refs = {id(node): _references(node) for _, node in stmts}
    bench = set().union(*map(_references, BENCH_TREES))
    unread = [
        f"{name}: {node.name}"
        for name, node in stmts
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in bench
        and not any(
            node.name in refs[id(other)] for _, other in stmts if other is not node
        )
    ]
    assert unread == []


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
    # The four drivers that bench/workloads.py calls with `order_seed=` keep
    # it, unread, until the benchmark stops passing it (ROADMAP item 2); no
    # other parameter may go unread.
    assert unread == [
        f"{driver}(order_seed)"
        for driver in ("run_netlog", "run_qe_fo_loc", "run_qe_fp", "run_qe_fp_loc")
    ]


# Every other question about a formula's syntax goes through
# `logic._scoped`; these rebuild a formula or evaluate it.
FORMULA_RECURSIONS = {
    "engine_fo._compile",
    "local_engine._compile",
    "logic._bound_quantifiers",
    "logic._drop_unused_binders",
    "logic._render",
    "logic._rename_binders",
    "logic._scoped",
    "logic._substitute",
    "logic.map_formula",
    "oracle.holds",
}


def _calls(tree: ast.AST) -> set[str]:
    """Names a tree calls, bare or as an attribute."""
    return {
        n.func.id if isinstance(n.func, ast.Name) else n.func.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))
    }


def test_formula_recursions_are_the_listed_ones():
    """A function that takes a `Formula` and calls itself, directly or from
    a nested function, is one of FORMULA_RECURSIONS."""
    found = set()
    for name, tree in TREES.items():
        for d in ast.walk(tree):
            if not isinstance(d, ast.FunctionDef):
                continue
            a = d.args
            annotations = [
                ast.unparse(p.annotation)
                for p in a.posonlyargs + a.args + a.kwonlyargs
                if p.annotation is not None
            ]
            if d.name in _calls(d) and any(
                re.search(r"\bFormula\b", t) for t in annotations
            ):
                found.add(f"{name[:-3]}.{d.name}")
    assert found == FORMULA_RECURSIONS


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


LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _hooked_names() -> set[tuple[str, str]]:
    """(module, qualified name) of every package name `bench/layers.py`
    counts or wraps, read from its source: the `MODULES` it attributes
    time to (name ""), the `CALL_COUNTS` it counts, the attributes it
    patches with `_patched`, and the methods `_CountingEngine` wraps
    (module "simnet", on a `NodeEngine`)."""
    tree = ast.parse(LAYERS.read_text(), str(LAYERS))
    consts: dict[str, object] = {}
    getattrs: dict[str, tuple[str, str]] = {}  # local name -> (module, attr)
    hooked: set[tuple[str, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            name, value = node.targets[0].id, node.value
            if name in ("MODULES", "CALL_COUNTS"):
                consts[name] = ast.literal_eval(value)
            elif isinstance(value, ast.Call) and getattr(value.func, "id", "") == "getattr":
                owner, attr = value.args[0], value.args[1]
                getattrs[name] = (owner.id, attr.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_patched":
            owner, attr = node.args[0].id, node.args[1].value
            module, prefix = getattrs.get(owner, (owner, ""))
            hooked.add((module, f"{prefix}.{attr}" if prefix else attr))
        elif isinstance(node, ast.ClassDef) and node.name == "_CountingEngine":
            hooked |= {
                ("simnet", f"NodeEngine.{m.name}")
                for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
            }
    hooked |= {(m, "") for m in consts["MODULES"]}
    for module, qualnames in consts["CALL_COUNTS"].values():
        hooked |= {(module, q) for q in qualnames}
    return hooked


def _has(owner: object, qualname: str) -> bool:
    try:
        operator.attrgetter(qualname)(owner)
    except AttributeError:
        return False
    return True


def _engine_classes(cls: type) -> list[type]:
    return [cls] + [c for sub in cls.__subclasses__() for c in _engine_classes(sub)]


def test_every_name_the_layer_benchmark_hooks_is_defined():
    """`bench/layers.py` skips a counter or wrapper whose name is gone, so a
    rename would silently drop a per-layer metric.  Each name it counts or
    wraps is defined in the package; an engine method counts as defined
    when some engine class defines it."""
    for name in ("cli", "engine_fp", "local_engine", "netlog"):
        importlib.import_module(f"netquery.{name}")  # every engine class
    missing = []
    for module, qualname in sorted(_hooked_names()):
        mod = importlib.import_module(f"netquery.{module}")
        owners = [mod]
        if qualname.startswith("NodeEngine."):
            owners = _engine_classes(mod.NodeEngine)
            qualname = qualname.split(".", 1)[1]
        if qualname and not any(_has(o, qualname) for o in owners):
            missing.append(f"{module}.{qualname}")
    assert missing == []


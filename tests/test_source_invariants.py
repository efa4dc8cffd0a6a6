"""Invariants read off the package source: the runtime imports only the
standard library, mechanism logic never touches floating point (both stated
in the README), every exception class the package defines is raised, and
every top-level name and every class method or property the package defines
is used by the package or the benchmark (what only tests use lives in
tests/reference.py)."""

import ast
from collections import Counter
import builtins
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "netauction"
BENCH = ROOT / "bench"
INTEGER_ONLY = ("model", "critical", "idm", "framework", "drm")


def parsed(name, directory=PACKAGE):
    path = directory / f"{name}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_trees():
    """Every package module parsed, by name; fails rather than finding none."""
    trees = {path.stem: parsed(path.stem) for path in sorted(PACKAGE.glob("*.py"))}
    assert {"__init__", "cli", "properties", *INTEGER_ONLY} <= set(trees)
    return trees


def test_runtime_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"__future__"}
    outside = []
    for name, tree in package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside += [f"{name}.py:{node.lineno} {r}" for r in roots if r not in allowed]
    assert outside == []


def test_mechanism_logic_has_no_floating_point():
    found = []
    for name in INTEGER_ONLY:
        for node in ast.walk(parsed(name)):
            if (
                isinstance(node, ast.Constant) and isinstance(node.value, float)
                or isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                found.append(f"{name}.py:{node.lineno}")
    assert found == []


def test_every_exception_class_is_raised():
    trees = package_trees().values()
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    errors = {name for name, obj in vars(builtins).items()
              if isinstance(obj, type) and issubclass(obj, BaseException)}
    defined = []
    grown = True
    while grown:
        grown = False
        for node in classes:
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            if node.name not in errors and bases & errors:
                errors.add(node.name)
                defined.append(node.name)
                grown = True
    raised = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert "AuctionError" in defined
    assert [name for name in defined if name not in raised] == []


def _loaded_names(node):
    """Every name ``node`` reads: a bare name, an attribute, or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def bench_trees():
    """Every benchmark module parsed, by name; fails rather than finding none."""
    bench = {path.stem: parsed(path.stem, BENCH) for path in sorted(BENCH.glob("*.py"))}
    assert {"run", "smoke", "tracing", "workloads"} <= set(bench)
    return bench


def test_every_top_level_name_is_used_by_the_package_or_the_benchmark():
    package = package_trees()
    bench = bench_trees()
    # Each top-level statement with the names it reads; a definition that
    # reads only its own name (recursion, a self-annotation) is not a use.
    statements = [
        (stmt, _loaded_names(stmt))
        for tree in [*package.values(), *bench.values()]
        for stmt in tree.body
    ]
    defined, unused = [], []
    for module, tree in package.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defined.append(name)
                if name != "__version__" and not any(
                    name in loads for other, loads in statements if other is not stmt
                ):
                    unused.append(f"{module}.{name}")
    assert "all_critical_structures" in defined
    assert unused == []


def _loaded_attributes(node):
    return Counter(
        sub.attr for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    )


def test_every_method_and_property_is_read_by_the_package_or_the_benchmark():
    """Each non-dunder method or property of a package class has its name
    loaded as an attribute somewhere in the package or the benchmark, outside
    its own body; a member only tests read is dead weight in the class."""
    package = package_trees()
    loads = Counter()
    for tree in [*package.values(), *bench_trees().values()]:
        loads += _loaded_attributes(tree)
    members, unread = [], []
    for module, tree in package.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if not isinstance(stmt, ast.FunctionDef) or (
                    stmt.name.startswith("__") and stmt.name.endswith("__")
                ):
                    continue
                members.append(stmt.name)
                if loads[stmt.name] <= _loaded_attributes(stmt)[stmt.name]:
                    unread.append(f"{module}.{cls.name}.{stmt.name}")
    assert {"seller_revenue", "truthful", "with_report"} <= set(members)
    assert unread == []

"""Invariants read off the package source: the runtime imports only the
standard library, mechanism logic never touches floating point (both stated
in the README), and every exception class the package defines is raised."""

import ast
import builtins
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "netauction"
INTEGER_ONLY = ("model", "critical", "idm", "framework", "drm")


def parsed(name):
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_runtime_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"__future__"}
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parsed(path.stem)):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {r}" for r in roots if r not in allowed]
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
    trees = [parsed(path.stem) for path in sorted(PACKAGE.glob("*.py"))]
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

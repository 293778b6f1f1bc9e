"""Source hygiene that no installed linter checks: every module-level import is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/qhc/*.py"), *ROOT.glob("tests/*.py")])


def module_imports(tree):
    """(name bound, line) for each import outside any function or class body."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        else:
            pending.extend(ast.iter_child_nodes(node))


def exported(tree):
    """The names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in module_imports(tree)
              if name not in used and name not in exported(tree)]
    assert not unused, f"unused imports in {path.relative_to(ROOT)}: {unused}"


def test_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"izergin.py", "exactnum.py", "test_izergin.py", "test_hygiene.py"} <= names

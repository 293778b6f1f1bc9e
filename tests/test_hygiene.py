"""Source hygiene that no installed linter checks.

Every module-level import is used, every module-level definition of the
package is used by the package or exported, and every private method of a
package class is used by the package.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/qhc/*.py"))
MODULES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])


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


def references(node, skip=None):
    """The names ``node`` reads, as a name, an attribute or an imported name.

    The subtree ``skip``, if given, is left out.
    """
    if node is skip:
        return
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from references(child, skip)


def definitions(tree):
    """(name, statement) for each module-level function, class and assigned name."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, stmt


def test_every_module_level_definition_is_used():
    # a definition that only refers to itself, as a recursive function can, is unused
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    reads = [(stmt, set(references(stmt))) for tree in trees.values() for stmt in tree.body]
    unused = [f"{path.relative_to(ROOT)}:{stmt.lineno} {name}"
              for path, tree in trees.items() for name, stmt in definitions(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and name not in exported(tree)
              and not any(name in names for other, names in reads if other is not stmt)]
    assert not unused, f"module-level definitions nothing in src/qhc uses: {unused}"


def private_methods(tree):
    """Each ``_name`` method (not ``__dunder__``) defined in a class of ``tree``."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and stmt.name.startswith("_") and not stmt.name.startswith("__")):
                    yield stmt


def test_every_private_method_is_used():
    # a method that only its own body calls, as a recursive one can, is unused
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    unused = [f"{path.relative_to(ROOT)}:{method.lineno} {method.name}"
              for path, tree in trees.items() for method in private_methods(tree)
              if not any(method.name in references(other, method)
                         for other in trees.values())]
    assert not unused, f"private methods nothing in src/qhc uses: {unused}"


def test_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"izergin.py", "exactnum.py", "test_izergin.py", "test_hygiene.py"} <= names

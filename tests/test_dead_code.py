"""No module-level private name in src/tricent is left without a user, and
no module imports a name it never reads."""

import ast
from collections import Counter
from pathlib import Path

import tricent

PACKAGE = Path(tricent.__file__).parent


def references(tree: ast.AST) -> Counter:
    """How often each name is read, imported or used as an attribute in tree."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def private_definitions(tree: ast.Module):
    """(name, node) for every _private function, class and assignment at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in found if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_module_name_is_used_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = sum((references(tree) for tree in trees.values()), Counter())
    assert used, "no source parsed"
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in private_definitions(tree)
        # uses inside the definition itself, such as recursion, do not count
        if used[name] == references(node)[name]
    ]
    assert unused == []


def imported_names(tree: ast.Module):
    """(bound name, line) for every import in tree, __future__ imports aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # import a.b binds a
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_import_is_read_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's public names
            continue
        tree = ast.parse(path.read_text())
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        unused += [
            f"{path.name}:{line}:{name}"
            for name, line in imported_names(tree)
            if name not in read
        ]
    assert unused == []

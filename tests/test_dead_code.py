"""No module-level private name in src/tricent is left without a user, no
public method of the core classes is left without a reader, no export is
left unshown to callers, and no module imports a name it never reads."""

import ast
import re
from collections import Counter
from pathlib import Path

import tricent

PACKAGE = Path(tricent.__file__).parent
REPO = Path(__file__).resolve().parents[1]


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


PUBLIC_CLASSES = {"Graph", "TriangleSet", "CentralityReport", "TriangleRanking", "RankingView"}


def public_members(tree: ast.Module):
    """(class, name, node) for every public method and property of PUBLIC_CLASSES."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name in PUBLIC_CLASSES:
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield cls.name, node.name, node


def test_every_public_method_is_read_outside_its_definition():
    """Read in src/, tests/, demos/, perfbench/ or README.md; the README
    counts a name it writes after a dot, as in report.top(10)."""
    package = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    readers = [REPO / folder for folder in ("tests", "demos", "perfbench")]
    trees = [*package.values()]
    trees += [ast.parse(path.read_text()) for folder in readers for path in folder.glob("*.py")]
    used = sum((references(tree) for tree in trees), Counter())
    readme = set(re.findall(r"\.(\w+)", (REPO / "README.md").read_text()))
    classes = {n.name for t in package.values() for n in t.body if isinstance(n, ast.ClassDef)}
    assert PUBLIC_CLASSES <= classes
    unused = [
        f"{cls}.{name}"
        for tree in package.values()
        for cls, name, node in public_members(tree)
        if used[name] == references(node)[name] and name not in readme
    ]
    assert unused == []


# Exports that callers need though no README line, demo, benchmark file or
# acceptance test names them: the types the public functions return, and the
# errors and warnings callers catch or filter.
EXPORTED_TYPES = {
    "AlphaDomainError",
    "AlphaTriangleOperator",
    "CentralityReport",
    "DegreeTriangleStats",
    "DuplicateEdgeWarning",
    "EdgeListParseError",
    "RemovalResult",
    "SpectralResult",
}


def test_every_export_is_shown_to_callers_or_is_a_type_they_need():
    """Each name in tricent.__all__ is read by a demo, a perfbench file or
    the acceptance tests, or written in the README, or is one of
    EXPORTED_TYPES, each an exported class."""
    sources = [path for folder in ("demos", "perfbench") for path in (REPO / folder).glob("*.py")]
    sources.append(REPO / "tests" / "test_acceptance.py")
    used = sum((references(ast.parse(path.read_text())) for path in sources), Counter())
    readme = set(re.findall(r"\w+", (REPO / "README.md").read_text()))
    unshown = {name for name in tricent.__all__ if not used[name] and name not in readme}
    assert unshown <= EXPORTED_TYPES
    assert EXPORTED_TYPES <= set(tricent.__all__)
    assert all(isinstance(getattr(tricent, name), type) for name in EXPORTED_TYPES)


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


def test_only_the_dense_measures_build_an_adjacency_matrix():
    """The n x n adjacency matrix is read by SC's eigendecomposition and the
    Laplacian alone; every other path in src/ works on the CSR."""
    readers = {
        f"{path.name}:{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"  # re-exports the name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and references(node)["adjacency_matrix"]
    }
    assert readers == {"centrality.py:laplacian_matrix", "centrality.py:subgraph_centrality"}

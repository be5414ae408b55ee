"""Every import in the package, the tests and the scripts is used, every
private module-level name of the package is named elsewhere, and the
package imports only itself and the standard library.

A name counts as used when the module reads it or lists it in __all__.
__future__ imports are exempt, and so is any import line marked
``# noqa: F401``, for a name kept so that outside code can patch it.
"""

import ast
import glob
import os
import re
import sys

from conftest import ROOT


def unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, path)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted(f"{os.path.relpath(path, ROOT)}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    paths = [p for d in ("src", "tests", "scripts")
             for p in glob.glob(os.path.join(ROOT, d, "**", "*.py"), recursive=True)]
    assert len(paths) > 10
    assert [hit for p in sorted(paths) for hit in unused_imports(p)] == []


def private_names(path):
    """(line, name) of each private function, class or constant that a
    module defines at its top level: a name with one leading _."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend((node.lineno, t.id) for t in targets if isinstance(t, ast.Name))
    return [(line, name) for line, name in names
            if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_of_the_package_is_named_elsewhere():
    # a helper or constant that nothing names but its own definition is
    # left over from a deletion
    paths = [p for d in ("src", "tests", "scripts")
             for p in glob.glob(os.path.join(ROOT, d, "**", "*.py"), recursive=True)]
    lines = {}
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            lines[p] = fh.read().splitlines()
    package = [p for p in paths if p.startswith(os.path.join(ROOT, "src", "negder", ""))]
    defined = [(p, line, name) for p in sorted(package) for line, name in private_names(p)]
    assert len(defined) > 30
    dead = []
    for p, line, name in defined:
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for q, texts in lines.items()
                   for n, text in enumerate(texts, 1) if (q, n) != (p, line)):
            dead.append(f"{os.path.relpath(p, ROOT)}:{line}: {name}")
    assert dead == []


def outside_imports(path):
    """file:line: module for each absolute import of a module outside the
    standard library."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.append((node.lineno, node.module))
    return [f"{os.path.relpath(path, ROOT)}:{line}: {name}" for line, name in modules
            if name.split(".")[0] not in sys.stdlib_module_names]


def test_package_imports_only_the_standard_library():
    paths = glob.glob(os.path.join(ROOT, "src", "negder", "**", "*.py"), recursive=True)
    assert len(paths) > 5
    assert [hit for p in sorted(paths) for hit in outside_imports(p)] == []
    # a third-party import does show
    conftest = outside_imports(os.path.join(ROOT, "tests", "conftest.py"))
    assert any(hit.endswith(": hypothesis") for hit in conftest)

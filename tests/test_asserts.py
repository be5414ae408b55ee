"""The package and the scripts raise errors instead of asserting, so every
check they make still runs under ``python -O``; the tests import the
scripts."""

import ast
import glob
import os

from conftest import ROOT


def assert_statements(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    return [f"{os.path.relpath(path, ROOT)}:{node.lineno}"
            for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_statements_in_the_package():
    paths = glob.glob(os.path.join(ROOT, "src", "negder", "**", "*.py"), recursive=True)
    scripts = glob.glob(os.path.join(ROOT, "scripts", "*.py"))
    assert len(paths) > 5 and len(scripts) > 3
    assert [hit for p in sorted(paths + scripts) for hit in assert_statements(p)] == []

"""The package raises errors instead of asserting, so every check it
makes still runs under ``python -O``."""

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
    assert len(paths) > 5
    assert [hit for p in sorted(paths) for hit in assert_statements(p)] == []

#!/usr/bin/env python3
"""Count the code lines of Python files: the lines that hold a token
other than a comment, a module, class or function docstring, or
whitespace.  Prints one line per file and the total.

    python3 scripts/code_lines.py              # every file of src/negder
    python3 scripts/code_lines.py a.py b.py
"""

import argparse
import ast
import glob
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree):
    """The (line, column) starts of the docstrings in tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path):
    """The number of code lines of the Python file at path."""
    with open(path, "rb") as fh:
        source = fh.read()
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*",
                        help="Python files to count (default: every file of src/negder)")
    args = parser.parse_args()
    files = args.files or [os.path.relpath(path) for path in
                           sorted(glob.glob(os.path.join(ROOT, "src", "negder", "*.py")))]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()

"""Every error message that the package can raise is named by a test: for
each ``raise ParseError(...)``, ``raise ValueError(...)`` and ``raise
TypeError(...)`` in every module of src/negder, and for the message
argument of each call of the argument readers ``_items`` and
``_iterated``, the longest literal piece of its message occurs in a test
file.

A message with no literal piece, such as a ParseError that passes on the
text of an error it caught, is left out.

No f-string of the package or of a script converts a value with !r, but
in linalg._quote and a __repr__: a message shows a value through _quote.
"""

import ast
import glob
import os

from conftest import ROOT

PACKAGE = os.path.join(ROOT, "src", "negder")

# the argument readers of linalg, and the place of their message argument
READERS = {"_items": 1, "_iterated": 1}


def message_argument(call):
    """The message node of call, if it raises ParseError, ValueError or
    TypeError or calls an argument reader: a ParseError's message is its
    second argument, a ValueError's or a TypeError's its first, a
    reader's its second."""
    if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Name):
        return None
    position = {"ParseError": 1, "ValueError": 0, "TypeError": 0, **READERS}.get(call.func.id)
    return None if position is None else call.args[position]


def raised_messages(path):
    """(line, longest literal piece) of each message in path, read by
    message_argument from each raise and each reader call."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            message = message_argument(node.exc)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in READERS:
            message = message_argument(node)
        else:
            continue
        if message is None:
            continue
        pieces = message.values if isinstance(message, ast.JoinedStr) else [message]
        texts = [p.value for p in pieces
                 if isinstance(p, ast.Constant) and isinstance(p.value, str)]
        if texts:
            out.append((node.lineno, max(texts, key=len)))
    return sorted(out)


def test_every_parser_error_message_is_named_by_a_test():
    texts = []
    for path in glob.glob(os.path.join(ROOT, "tests", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
        # a message split over lines is one constant once parsed
        texts.extend(node.value for node in ast.walk(ast.parse(texts[-1]))
                     if isinstance(node, ast.Constant) and isinstance(node.value, str))
    modules = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    sites = [(os.path.basename(path), line, piece)
             for path in modules for line, piece in raised_messages(path)]
    assert {name for name, _, _ in sites} >= {
        "algebra.py", "cli.py", "derivations.py", "fileformats.py", "linalg.py", "rigidity.py"}
    assert len(sites) > 70
    assert [f"{name}:{line}: {piece!r}" for name, line, piece in sites
            if not any(piece in text for text in texts)] == []


def test_no_message_uses_a_repr_conversion():
    # a message shows a value through linalg._quote, which keeps it short
    # and names an int that repr cannot write; so no f-string of the
    # package or of a script converts with !r, but for _quote itself and
    # a __repr__
    paths = [*glob.glob(os.path.join(PACKAGE, "*.py")),
             *glob.glob(os.path.join(ROOT, "scripts", "*.py"))]
    assert any(os.path.basename(path) == "corpus_survey.py" for path in paths)
    sites = []
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        exempt = {id(node) for function in ast.walk(tree)
                  if isinstance(function, ast.FunctionDef)
                  and function.name in ("_quote", "__repr__")
                  for node in ast.walk(function)}
        sites += [f"{os.path.basename(path)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
                  and id(node) not in exempt]
    assert sites == []

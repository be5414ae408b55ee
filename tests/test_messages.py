"""Every error message that the parsers, the presentation checker and the
solver can raise is named by a test: for each ``raise ParseError(...)``
and ``raise ValueError(...)`` in fileformats.py, algebra.check_generator,
linalg.py and derivations.py, the longest literal piece of its message
occurs in a test file.

A message with no literal piece, such as a ParseError that passes on the
text of an error it caught, is left out.
"""

import ast
import glob
import os

from conftest import ROOT

PACKAGE = os.path.join(ROOT, "src", "negder")


def raised_messages(path, function=None):
    """(line, longest literal piece) of the message of each raise of
    ParseError or ValueError in path, or only in its top-level function of
    that name: a ParseError's message is its second argument, a
    ValueError's its first."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    if function is not None:
        (tree,) = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == function]
    out = []
    for node in ast.walk(tree):
        call = node.exc if isinstance(node, ast.Raise) else None
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id in ("ParseError", "ValueError")):
            continue
        message = call.args[call.func.id == "ParseError"]
        pieces = message.values if isinstance(message, ast.JoinedStr) else [message]
        texts = [p.value for p in pieces
                 if isinstance(p, ast.Constant) and isinstance(p.value, str)]
        if texts:
            out.append((node.lineno, max(texts, key=len)))
    return sorted(out)


# (module, top-level function or None for the whole module)
SOURCES = (("fileformats.py", None), ("algebra.py", "check_generator"),
           ("linalg.py", None), ("derivations.py", None))


def test_every_parser_error_message_is_named_by_a_test():
    texts = []
    for path in glob.glob(os.path.join(ROOT, "tests", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
        # a message split over lines is one constant once parsed
        texts.extend(node.value for node in ast.walk(ast.parse(texts[-1]))
                     if isinstance(node, ast.Constant) and isinstance(node.value, str))
    sites = [(name, line, piece)
             for name, function in SOURCES
             for line, piece in raised_messages(os.path.join(PACKAGE, name), function)]
    assert {name for name, _, _ in sites} == {name for name, _ in SOURCES}
    assert len(sites) > 40
    assert [f"{name}:{line}: {piece!r}" for name, line, piece in sites
            if not any(piece in text for text in texts)] == []

"""Every exit-2 path that echoes a token keeps its error line short.

Each row of the exact-message tests of test_formats.py is run through the
command line again with one token of its input made 100 000 characters
long, and so is each integer option of the command line, the name of an
example and the path of an algebra file.  The answer
must be exit 2, nothing on stdout, and one error line of at most 300
bytes, of the same kind as the row's own message.
"""

import re

import pytest

from negder import ParseError, cli, corpus, parse_presentation, parse_structure_constants
from test_formats import DIGITS, PRESENTATION_ERRORS, TABLE_ERRORS, TERMS_ERRORS, edited

LONG = 100_000
BOUND = 300

# The token of each row's input that is made long: every occurrence of it
# in the text is repeated to LONG characters or more.  Where the message
# echoes a token, it is that one; a label is made long wherever it stands.
TABLE_TOKENS = {
    "unit without a label": "x",
    "second unit line": "x",
    "basis line of three words": "x",
    "word degree": "two",
    "illegal basis label": "y",
    "duplicate basis label": "x",
    "negative degree": "x",
    "product line without =": "x",
    "one label before =": "x",
    "line before the basis": "y",
    "no basis": "x",
    "no unit": "x",
    "unit outside the basis": "y",
    "unknown right label": "y",
    "unknown left label": "y",
    "second product line": "x",
    "decimal coefficient": "1.5",
    "empty term before +": "x",
    "empty term after +": "x",
    "term without *": "x",
    "unknown term label": "y",
    "coefficient past the int-string limit": "1" * (DIGITS + 1),
    "long unknown term label": "y" * 50,
    "degree past the int-string limit": "2" * (DIGITS + 1),
}
TERMS_TOKENS = {"2 * x": "x", "1*y + 1*x": "y", "1*x + 1/0*x": "1/0"}
# "name" alone holds no token: its input is the directive and nothing else
PRESENTATION_TOKENS = {
    "name": None,
    "name t\nwidget x": "widget",
    "generator x degree": "x",
    "generator x deg 2": "deg",
    "generator x degree 2 trunc 3": "trunc",
    "generator x degree two": "two",
    "generator x degree 2 truncate three": "three",
    "generator x degree 0": "x",
    "generator x degree 2 truncate 1": "x",
    "generator x degree 3 truncate 4": "x",
    "generator x degree 2\ngenerator x degree 4": "x",
    "generator x^2 degree 2": "x",
    f"generator x degree {'1' * (DIGITS + 1)}": "1" * (DIGITS + 1),
    f"generator {'x' * 41} degree 0": "x" * 41,
}


def rows():
    """(parser, text, message, token) of every exact-message row of
    test_formats whose input holds a token, parser the one its test
    calls, each with an id."""
    table, presentation = parse_structure_constants, parse_presentation
    out = [(name, table, *TABLE_ERRORS[name], TABLE_TOKENS[name]) for name in TABLE_ERRORS]
    # the terms rows read MINIMAL_TABLE's labels, as a line of it
    out += [(f"terms {rhs}", table, edited("1 x = 1*x", f"1 x = {rhs}"), message,
             TERMS_TOKENS[rhs]) for rhs, message in TERMS_ERRORS]
    out += [(text[:40], presentation, text + "\n", message, PRESENTATION_TOKENS[text])
            for text, message in PRESENTATION_ERRORS]
    return [pytest.param(*row, id=name) for name, *row in out if row[-1] is not None]


def lengthened(text, token):
    assert token in text, token
    return text.replace(token, token * -(-LONG // len(token)))


def one_short_line(err):
    assert err.endswith("\n") and err.count("\n") == 1, err[:BOUND]
    assert len(err.encode()) <= BOUND, err[:BOUND]


def test_every_exact_message_row_has_its_token():
    assert set(TABLE_TOKENS) == set(TABLE_ERRORS)
    assert set(TERMS_TOKENS) == {rhs for rhs, _ in TERMS_ERRORS}
    assert set(PRESENTATION_TOKENS) == {text for text, _ in PRESENTATION_ERRORS}


@pytest.mark.parametrize("parse, text, message, token", rows())
def test_a_long_token_gives_one_short_error_line(tmp_path, capsys, parse, text, message, token):
    text = lengthened(text, token)
    # the parser of the row raises the same kind of error as the row's: its
    # words up to the first quote, or up to the token where the row echoes
    # it unquoted
    with pytest.raises(ParseError) as info:
        parse(text)
    head = re.sub(r"^line \d+: ", "", message).split("'")[0].removesuffix(token)
    assert head in str(info.value), str(info.value)[:BOUND]
    one_short_line(f"{info.value}\n")
    path = tmp_path / "long.alg"
    path.write_text(text, encoding="utf-8")
    assert cli.run(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    one_short_line(err)


@pytest.mark.parametrize("command, option", [
    ("check-h", "--max-degree"), ("derivations", "--degree"), ("char", "--rank"),
    ("rigidity", "--torus")])
@pytest.mark.parametrize("token", ["x" * LONG, "1" * LONG], ids=["letters", "digits"])
def test_a_long_integer_option_gives_one_short_error_line(capsys, command, option, token):
    s3 = corpus.path("s3")
    assert cli.run([command, s3, option, "x"]) == 2
    usage = capsys.readouterr().err.splitlines()[:-1]
    assert cli.run([command, s3, f"{option}={token}"]) == 2
    out, err = capsys.readouterr()
    *lines, last = err.splitlines(keepends=True)
    assert out == "" and [line.rstrip("\n") for line in lines] == usage
    one_short_line(last)
    assert last.startswith(f"negder {command}: error: argument {option}: "
                           f"invalid integer value: '{token[:40]}'... ({LONG} characters)")
    assert last.endswith(f"has more digits than the int-string limit of {DIGITS}\n"
                         if token.isdigit() else "characters)\n")


@pytest.mark.parametrize("argv", [["examples", "show", "x" * LONG], ["check-h", "x" * LONG]],
                         ids=["example name", "file path"])
def test_a_long_name_or_path_gives_one_short_error_line(capsys, argv):
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    one_short_line(err)
    assert f"'{'x' * 40}'... ({LONG} characters)" in err

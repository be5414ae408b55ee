"""Every exit-2 path that echoes a token keeps its error line short.

Each row of the exact-message tests of test_formats.py is run through the
command line again with one token of its input made 100 000 characters
long, and so is each integer option of the command line, the name of an
example, the path of an algebra file, and the tokens that argparse itself
names: an unknown command or action, and an argument left over.  The
answer must be exit 2, nothing on stdout, and one error line of at most
300 bytes, of the same kind as the row's own message.  The library's own
messages are held to the same bound: a value of 100 000 characters or
items, or an int past the int-string limit, gives a ValueError in the
call's own words, never Python's "Exceeds the limit".
"""

import re

import pytest

from negder import (Element, GradedAlgebra, GradedBasis, GradedLinearMap, KunnethModel,
                    LambdaFamily, ParseError, cli, corpus, nullspace_basis, parse_presentation,
                    parse_structure_constants)
from negder.fileformats import integer
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


@pytest.mark.parametrize("argv, quoted", [
    (["x" * LONG], "argument command: invalid choice: {}"),
    (["examples", "x" * LONG], "argument action: invalid choice: {}"),
    (["check-h", "a", "x" * LONG], "unrecognized arguments: {}"),
    (["check-h", "--json=" + "x" * LONG, "a"], "argument --json: ignored explicit argument {}")],
    ids=["command", "examples action", "leftover", "explicit argument"])
def test_a_long_token_that_argparse_names_gives_a_short_stderr(capsys, argv, quoted):
    assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.encode()) <= BOUND, err[:BOUND]
    assert quoted.format(f"'{'x' * 40}'... ({LONG} characters)") in err


def test_the_parser_quotes_a_long_token_in_any_argparse_message(capsys):
    # argparse's own message for a type that raises ValueError quotes the
    # whole token; the parser's one rule cuts it, and leaves a short token's
    # message as argparse wrote it
    parser = cli._Parser(prog="p")
    parser.add_argument("n", type=integer)
    for token, shown in (("x", "'x'"), ("x" * LONG, f"'{'x' * 40}'... ({LONG} characters)")):
        with pytest.raises(SystemExit):
            parser.parse_args([token])
        last = capsys.readouterr().err.splitlines(keepends=True)[-1]
        assert last == f"p: error: argument n: invalid integer value: {shown}\n", last[:BOUND]


CUT = f"'{'x' * 40}'... ({LONG} characters)"
# repr shows LINES in double quotes, and BOTH in single quotes
LINES = "'\n" * (LONG // 2)
BOTH = '"' + LINES
BARE = "--=\n" + LINES  # argparse shows an ambiguous option bare


@pytest.mark.parametrize("argv, quoted", [
    (["check-h", "a", "--=" + "x" * LONG],
     f"ambiguous option: '--={'x' * 37}'... ({LONG + 3} characters) could"),
    (["check-h", "a", "-h" + "x" * LONG], f"ignored explicit argument {CUT}"),
    (["check-h", "a", "-hh" + "x" * LONG], f"ignored explicit argument {CUT}"),
    (["check-h", "a", "-h-h" + "x" * LONG],
     f"ignored explicit argument '-h{'x' * 38}'... ({LONG + 2} characters)"),
    (["check-h", "a", "x" * 41, "-h" + "x" * LONG], f"ignored explicit argument {CUT}"),
    (["check-h", "a", "x" * 41, "--=" + "x" * LONG],
     f"ambiguous option: '--={'x' * 37}'... ({LONG + 3} characters) could"),
    (["check-h", "a", BARE], f"ambiguous option: {BARE[:40]!r}... ({LONG + 4} characters) could"),
    ([LINES], f"invalid choice: {LINES[:40]!r}... ({LONG} characters) (choose"),
    ([BOTH], f"invalid choice: {BOTH[:40]!r}... ({LONG + 1} characters) (choose")],
    ids=["ambiguous option", "flag with a value", "flags with a value", "flag with a flag",
         "a long token inside the flag's value", "a long token inside the ambiguous option",
         "line breaks in an ambiguous option", "quotes and line breaks",
         "both quotes and line breaks"])
def test_a_long_option_token_gives_a_short_stderr(capsys, argv, quoted):
    # "--=x..." could be any long option, and argparse shows it bare; before
    # 3.13 argparse reads "-hx..." as -h with the value "x...", which it
    # ignores, and 3.13 prints the help; "x" * 41 shows many times over
    # inside the longer token, but only the longest token argparse shows
    # is cut
    code = cli.run(argv)
    err = capsys.readouterr().err
    assert len(err.encode()) <= BOUND, err[:BOUND]
    assert code == 0 and argv[-1].startswith(("-hx", "-hhx")) or code == 2 and quoted in err, err


HUGE = 10**5000  # past the int-string limit, whose repr raises ValueError
HUGE_BITS = "<int of 16610 bits>"
CUT_KEY = "(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1... (688890 characters)"


def cp2():
    return corpus.load("cp2")


@pytest.mark.parametrize("call, message", [
    (lambda: nullspace_basis(HUGE, 1), f"the system must be an iterable of rows, not {HUGE_BITS}"),
    (lambda: nullspace_basis([{-1: 1}], HUGE),
     f"a row has an entry outside columns 0..{HUGE_BITS}"),
    (lambda: GradedLinearMap(0, {0: HUGE}),
     f"block at degree 0 must be a list of rows, not {HUGE_BITS}"),
    (lambda: GradedLinearMap(0, HUGE),
     f"blocks must be a mapping {{degree: block}}, not {HUGE_BITS}"),
    (lambda: cp2().basis_element(HUGE), f"basis index {HUGE_BITS} is outside 0..2"),
    (lambda: GradedAlgebra(["1"], [0], 0, {(HUGE, 0): {0: 1}}),
     f"table key <tuple> names {HUGE_BITS}, outside 0..0"),
    (lambda: GradedBasis(["1"], [0], HUGE), f"unit {HUGE_BITS} is not a basis index"),
    (lambda: KunnethModel(cp2(), 2).total_index(0, [HUGE]), "subset <list> is not within 1..2"),
    (lambda: Element("x" * LONG), "a mapping {Element key: coefficient} is needed, "
                                  f"not '{'x' * 40}'... ({LONG} characters)"),
    (lambda: GradedAlgebra(["1"], [0], 0, {tuple(range(LONG)): {0: 1}}),
     f"table key must be a pair (i, j) of ints, not {CUT_KEY}"),
    (lambda: KunnethModel(cp2(), 2).total_index(0, list(range(LONG))),
     f"subset [{CUT_KEY[1:]} is not within 1..2"),
    (lambda: LambdaFamily(LONG, {tuple(range(1, LONG + 1)): 5}),
     "component at (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, ... (688895 characters) must be a "
     "GradedLinearMap, not int"),
], ids=["system", "columns", "block", "blocks", "basis index", "table key", "unit",
        "subset coordinate", "Element", "long table key", "long subset", "long component key"])
def test_a_huge_value_gives_a_short_message_in_the_calls_own_words(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
    assert len(message) <= BOUND and "Exceeds the limit" not in message

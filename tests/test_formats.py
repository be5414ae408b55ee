import json
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (basis_changed, corrupted, flag_manifold, presentations,
                      projective_space, sphere, src_env, torus)
from negder import (AlgebraFile, GradedAlgebra, ParseError, ValidationError,
                    build_monomial_algebra, cli,
                    detect_format, fileformats, load_algebra_text, parse_presentation,
                    parse_structure_constants, serialize_structure_constants,
                    tensor)
from negder.corpus import names as corpus_names
from negder.corpus import text as corpus_text
from negder.fileformats import (PRESENTATION, STRUCTURE_CONSTANTS, _coefficient, _parse_terms,
                                integer)
from negder.linalg import _quote

MINIMAL_TABLE = """\
basis:
1 0
x 2

unit: 1

products:
1 1 = 1*1
1 x = 1*x
"""


# --- format detection ---

def test_detect_presentation():
    assert detect_format("# c\nname t\ngenerator x degree 2\n") == "presentation"
    assert detect_format("generator y degree 3") == "presentation"


def test_detect_structure_constants():
    assert detect_format(MINIMAL_TABLE) == "structure_constants"
    assert detect_format("# note\nbasis:\n1 0\n") == "structure_constants"


def test_detect_rejects_empty_and_unknown():
    with pytest.raises(ParseError, match="^empty input$"):
        detect_format("# only comments\n\n")
    with pytest.raises(ParseError, match="^line 2: unrecognized directive 'widget'$"):
        detect_format("# note\nwidget x\n")


# --- presentation parsing ---

def test_parse_presentation_round_trip_through_builder():
    text = "name demo\ngenerator x degree 2 truncate 3\ngenerator y degree 5\n"
    alg = load_algebra_text(text)
    assert alg.name == "demo"
    assert alg.dim == 6
    assert alg.top_degree == 9
    assert not alg.validate()


def test_parse_presentation_defaults_odd_truncation():
    pres = parse_presentation("generator a degree 3\n")
    assert pres.generators[0].truncation == 2


def test_presentation_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_presentation("name ok\nwidget x degree 2\n")
    with pytest.raises(ParseError, match="degree"):
        parse_presentation("generator x degree zero\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_presentation(
            "generator x degree 2\n# fine\ngenerator x degree 4\n")
    with pytest.raises(ParseError, match="truncat"):
        parse_presentation("generator x degree 3 truncate 4\n")
    with pytest.raises(ParseError, match="truncat"):
        parse_presentation("generator x degree 2 truncate 1\n")
    # symbols that would collide with a monomial label or the unit, or
    # break the structure-constant format
    for symbol in ("x^2", "1", "0", "a+b", "unit:a", "a*b", "a=b"):
        with pytest.raises(ParseError, match=r"line 2: illegal generator symbol"):
            parse_presentation(f"generator x degree 2 truncate 3\ngenerator {symbol} degree 4\n")
    # the table budget stops the parse at the line that passes it, the
    # twelfth exterior generator at 3**12 entries: the malformed line after
    # it is never read
    lines = ["name T13", "# exterior"] + [f"generator e{k} degree 1" for k in range(12)]
    with pytest.raises(ParseError, match=r"^line 14: the presentation needs a table of at "
                                         r"least 531441 entries, over the limit of 250000$"):
        parse_presentation("\n".join(lines + ["widget", "generator e12 degree 1"]) + "\n")


def test_presentation_with_no_generators_builds_the_point():
    alg = load_algebra_text("name empty\n")
    assert alg.dim == 1
    assert alg.degrees == [0]


# --- structure-constant parsing ---

def test_parse_minimal_table():
    alg = parse_structure_constants(MINIMAL_TABLE)
    assert alg.labels == ["1", "x"]
    assert alg.degrees == [0, 2]
    assert alg.unit == 0
    # x*x is omitted, hence zero
    assert not alg.multiply(alg.basis_element(1), alg.basis_element(1))


def test_parse_fractional_coefficients():
    text = MINIMAL_TABLE.replace("1 x = 1*x", "1 x = 1/1*x\nx x = 0")
    alg = parse_structure_constants(text)
    assert alg.products[(0, 1)] == {1: Fraction(1)}


@pytest.mark.parametrize("text, value", [
    ("1/1", 1), ("-3/4", Fraction(-3, 4)), ("+2", 2), ("0", 0), ("12 ", 12),
    ("6/4", Fraction(3, 2)),
])
def test_coefficients_of_the_documented_grammar_parse(text, value):
    assert _coefficient(text, 1, {}) == value


def test_terms_read_signed_and_fractional_coefficients():
    assert _parse_terms("1/1*x + -3/4*x + 2 *y", 1, {"x": 0, "y": 1}, {}) == {
        0: Fraction(1, 4), 1: 2}


@pytest.mark.parametrize("text", [
    "1.5", "1e3", "1e10000000", "1_000", "0x1", "\u0661", "\u00bd", "1/0", "--1",
    "+-1", "1/-2", "1 /2", "1/ 2", "- 1", "", "inf", "nan",
])
def test_coefficients_outside_the_grammar_are_parse_errors(text):
    with pytest.raises(ParseError, match="^line 3: bad coefficient"):
        _coefficient(text, 3, {})
    if "+" not in text:  # in a line, "+" separates terms
        table = MINIMAL_TABLE.replace("1 x = 1*x", f"1 x = {text}*x")
        with pytest.raises(ParseError, match="^line 9: bad coefficient"):
            parse_structure_constants(table)


def test_parser_reads_each_coefficient_text_once(monkeypatch):
    texts = []
    real = fileformats.Fraction
    monkeypatch.setattr(fileformats, "Fraction", lambda text: texts.append(text) or real(text))
    t6 = torus(6)
    assert parse_structure_constants(serialize_structure_constants(t6)) == t6
    assert sorted(texts) == ["-1", "1"]


def test_parse_infers_transposes():
    # basis sorts by (degree, exponent vector): 1, i2, i1, i1*i2
    two_torus = torus(2)
    text = serialize_structure_constants(two_torus)
    assert "i2 i1 = -1*i1*i2" in text  # the index-ascending (1, 2) pair
    assert "i1 i2" not in text  # its transpose (2, 1) is left implicit
    parsed = parse_structure_constants(text)
    assert parsed.products == two_torus.products
    assert parsed.products[(1, 2)] == {3: Fraction(-1)}
    assert parsed.products[(2, 1)] == {3: Fraction(1)}


def test_parse_accepts_a_reverse_order_only_line():
    reverse = MINIMAL_TABLE.replace("1 x = 1*x", "x 1 = 1*x")
    alg = parse_structure_constants(reverse)
    assert alg.products[(1, 0)] == alg.products[(0, 1)] == {1: Fraction(1)}
    assert alg == parse_structure_constants(MINIMAL_TABLE)


def test_parse_rejects_duplicate_product_lines():
    text = MINIMAL_TABLE + "1 x = 1*x\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_structure_constants(text)


def test_parse_rejects_duplicate_unit_lines():
    text = MINIMAL_TABLE.replace("unit: 1\n", "unit: 1\nunit: x\n")
    with pytest.raises(ParseError, match="line 6: duplicate unit") as info:
        parse_structure_constants(text)
    assert info.value.line_no == 6


def test_parse_rejects_unknown_labels():
    with pytest.raises(ParseError, match="unknown"):
        parse_structure_constants(MINIMAL_TABLE.replace("1 x = 1*x",
                                                        "1 y = 1*y"))


def test_parse_rejects_missing_sections():
    with pytest.raises(ParseError, match="unit"):
        parse_structure_constants("basis:\n1 0\n\nproducts:\n1 1 = 1*1\n")


# --- every parse error, by its exact message ---

def edited(old, new):
    """MINIMAL_TABLE with its one line old replaced by new."""
    assert MINIMAL_TABLE.count(old) == 1, old
    return MINIMAL_TABLE.replace(old, new)


# Python reads an int from at most this many digits, 4 300 unless the
# limit is changed or lifted; the parser reads a coefficient's numerator
# and denominator through int
DIGITS = sys.get_int_max_str_digits()
TERM = "the term {} a '+' is empty; a coefficient carries at most a minus sign"

TABLE_ERRORS = {
    "unit without a label": (edited("unit: 1", "unit:"), "line 5: unit needs a basis label"),
    "second unit line": (edited("unit: 1", "unit: 1\nunit: x"), "line 6: duplicate unit line"),
    "basis line of three words": (edited("x 2", "x 2 3"), "line 3: expected: <label> <degree>"),
    "word degree": (edited("x 2", "x two"), "line 3: degree must be an integer, got 'two'"),
    "illegal basis label": (edited("x 2", "x+y 2"), "line 3: illegal basis label 'x+y'"),
    "duplicate basis label": (edited("x 2", "x 2\nx 4"), "line 4: duplicate basis label 'x'"),
    "negative degree": (edited("x 2", "x -2"), "line 3: degrees must be nonnegative"),
    "product line without =": (edited("1 x = 1*x", "1 x 1*x"),
                               "line 9: expected: <i> <j> = <coeff>*<k> [+ ...]"),
    "one label before =": (edited("1 x = 1*x", "1 = 1*x"),
                           "line 9: expected two basis labels before '='"),
    "line before the basis": (edited("basis:", "y 2\nbasis:"),
                              "line 1: line outside any section"),
    "no basis": (edited("basis:\n1 0\nx 2\n", ""), "no basis section"),
    "no unit": (edited("unit: 1", ""), "no unit line"),
    "unit outside the basis": (edited("unit: 1", "unit: y"), "unit label 'y' is not in the basis"),
    "unknown right label": (edited("1 x = 1*x", "1 y = 1*x"), "line 9: unknown basis label 'y'"),
    "unknown left label": (edited("1 x = 1*x", "y x = 1*x"), "line 9: unknown basis label 'y'"),
    "second product line": (edited("1 x = 1*x", "1 x = 1*x\n1 x = 1*x"),
                            "line 10: duplicate product line for '1' 'x'"),
    "decimal coefficient": (edited("1 x = 1*x", "1 x = 1.5*x"), "line 9: bad coefficient '1.5'"),
    "empty term before +": (edited("1 x = 1*x", "1 x = +1*x"), "line 9: " + TERM.format("before")),
    "empty term after +": (edited("1 x = 1*x", "1 x = 1*x +"), "line 9: " + TERM.format("after")),
    "term without *": (edited("1 x = 1*x", "1 x = x"), "line 9: expected <coeff>*<label>, got 'x'"),
    "unknown term label": (edited("1 x = 1*x", "1 x = 1*y"), "line 9: unknown basis label 'y'"),
    "coefficient past the int-string limit": (
        edited("1 x = 1*x", f"1 x = {'1' * (DIGITS + 1)}*x"),
        f"line 9: bad coefficient {'1' * 40!r}... ({DIGITS + 1} characters)"),
    "long unknown term label": (edited("1 x = 1*x", f"1 x = 1*{'y' * 50}"),
                                f"line 9: unknown basis label {'y' * 40!r}... (50 characters)"),
    "degree past the int-string limit": (
        edited("x 2", f"x {'2' * (DIGITS + 1)}"),
        f"line 3: degree {'2' * 40!r}... ({DIGITS + 1} characters) has more digits than "
        f"the int-string limit of {DIGITS}"),
}


@pytest.mark.parametrize("name", TABLE_ERRORS)
def test_a_table_error_names_its_line(name):
    text, message = TABLE_ERRORS[name]
    with pytest.raises(ParseError) as info:
        parse_structure_constants(text)
    assert str(info.value) == message


TERMS_ERRORS = [
    # the table rows above reach the other errors of _parse_terms
    ("2 * x", "line 4: unknown basis label ' x'"),  # a space may stand before *, not after
    ("1*y + 1*x", "line 4: unknown basis label 'y'"),
    ("1*x + 1/0*x", "line 4: bad coefficient '1/0'"),
]


@pytest.mark.parametrize("rhs, message", TERMS_ERRORS)
def test_a_terms_error_names_its_line(rhs, message):
    with pytest.raises(ParseError) as info:
        _parse_terms(rhs, 4, {"1": 0, "x": 1}, {})
    assert str(info.value) == message


def test_a_coefficient_at_the_int_string_limit_parses():
    # x x = N y with N of DIGITS digits: one digit more is a row above
    big = int("1" * DIGITS)
    text = edited("x 2", "x 2\ny 4") + f"1 y = 1*y\nx x = {'1' * DIGITS}*y\n"
    assert parse_structure_constants(text).products[1, 1] == {2: big}


PRESENTATION_ERRORS = [
    ("name", "line 1: name needs a value"),
    ("name t\nwidget x", "line 2: unknown directive 'widget'"),
    ("generator x degree", "line 1: expected: generator <symbol> degree <n> [truncate <m>]"),
    ("generator x deg 2", "line 1: expected: generator <symbol> degree <n> [truncate <m>]"),
    ("generator x degree 2 trunc 3", "line 1: expected 'truncate', got 'trunc'"),
    ("generator x degree two", "line 1: degree must be an integer, got 'two'"),
    ("generator x degree 2 truncate three", "line 1: truncation must be an integer, got 'three'"),
    ("generator x degree 0", "line 1: generator 'x' must have positive degree"),
    ("generator x degree 2 truncate 1", "line 1: generator 'x' needs truncation >= 2"),
    ("generator x degree 3 truncate 4", "line 1: odd-degree generator 'x' must truncate at 2"),
    ("generator x degree 2\ngenerator x degree 4", "line 2: duplicate generator symbol 'x'"),
    ("generator x^2 degree 2", "line 1: illegal generator symbol 'x^2'"),
    (f"generator x degree {'1' * (DIGITS + 1)}",
     f"line 1: degree {'1' * 40!r}... ({DIGITS + 1} characters) has more digits than "
     f"the int-string limit of {DIGITS}"),
    (f"generator {'x' * 41} degree 0",
     f"line 1: generator {'x' * 40!r}... (41 characters) must have positive degree"),
]


@pytest.mark.parametrize("text, message", PRESENTATION_ERRORS)
def test_a_presentation_error_names_its_line(text, message):
    with pytest.raises(ParseError) as info:
        parse_presentation(text + "\n")
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["unit without a label", "unknown right label",
                                  "unknown term label", "coefficient past the int-string limit"])
def test_a_table_error_exits_2_with_its_message(tmp_path, capsys, name):
    text, message = TABLE_ERRORS[name]
    path = tmp_path / "bad.alg"
    path.write_text(text, encoding="utf-8")
    for command in ("validate", "check-h"):
        assert cli.run([command, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_huge_coefficient_gives_one_short_error_line(tmp_path, capsys):
    # the message quotes 40 digits of the million and the count, not all
    path = tmp_path / "huge.alg"
    path.write_text(edited("1 x = 1*x", f"1 x = {'7' * 1_000_000}*x"), encoding="utf-8")
    assert cli.run(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err) < 200
    assert err.startswith("error: line 9: bad coefficient ")


def test_a_quoted_token_reads_as_its_repr_up_to_40_characters():
    assert [_quote(t) for t in ("x", "'", "a" * 40, 5, (1, 2))] == [
        "'x'", '"\'"', repr("a" * 40), "5", "(1, 2)"]
    assert _quote("a" * 41) == f"{'a' * 40!r}... (41 characters)"
    # any other value is cut in its repr, and one whose repr fails is named
    assert _quote(tuple(range(20))) == "(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1... (70 characters)"
    assert _quote(10**5000) == "<int of 16610 bits>"
    assert _quote([10**5000]) == "<list>"


def test_integer_reads_only_sign_and_ascii_digits():
    assert integer("-12") == -12
    for text in ("1_0", "\u0663", " 1", "1.0"):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(text))} is not an integer$"):
            integer(text)


def test_parse_sends_bad_tables_to_validation():
    # drop the unit row entirely: parse succeeds, validation does not
    text = "basis:\n1 0\nx 2\n\nunit: 1\n\nproducts:\n1 x = 1*x\n"
    with pytest.raises(ValidationError) as info:
        parse_structure_constants(text)
    assert any("unit" in v for v in info.value.violations)


def test_explicit_transpose_lines_are_checked_not_inferred():
    prod = tensor(sphere(3), sphere(5))
    text = serialize_structure_constants(prod)
    assert "1⊗x x⊗1 = -1*x⊗x" in text
    # a consistent explicit transpose is accepted ...
    consistent = text + "x⊗1 1⊗x = 1*x⊗x\n"
    assert parse_structure_constants(consistent).products == prod.products
    # ... while an inconsistent one is a commutativity violation
    broken = text + "x⊗1 1⊗x = -1*x⊗x\n"
    with pytest.raises(ValidationError) as info:
        parse_structure_constants(broken)
    assert any("commut" in v for v in info.value.violations)


# --- serialization ---

def test_serializer_round_trips_corpus():
    for name in corpus_names():
        alg = load_algebra_text(corpus_text(name))
        again = parse_structure_constants(serialize_structure_constants(alg))
        assert again.labels == alg.labels
        assert again.degrees == alg.degrees
        assert again.unit == alg.unit
        assert again.products == alg.products


def test_serializer_round_trips_tensor_products():
    for alg in (tensor(projective_space(2), sphere(4)),
                tensor(torus(2), projective_space(1))):
        again = parse_structure_constants(serialize_structure_constants(alg))
        assert again.products == alg.products


@given(presentations().filter(lambda p: prod(g.truncation for g in p.generators) <= 16),
       st.data())
@settings(max_examples=40, deadline=None)
def test_serializer_round_trips_basis_changed_tables(p, data):
    # a change of basis gives fractional and negative coefficients
    b = basis_changed(build_monomial_algebra(p), data)
    assert parse_structure_constants(serialize_structure_constants(b)) == b


def test_table_load_round_trips_a_dim_64_torus():
    t6 = torus(6)
    assert load_algebra_text(serialize_structure_constants(t6)) == t6


def test_parser_shares_one_entry_per_right_hand_side():
    t6 = torus(6)
    text = serialize_structure_constants(t6)
    sides = {line.split("=", 1)[1].strip()
             for line in text.split("products:\n", 1)[1].splitlines()}
    parsed = parse_structure_constants(text)
    # one entry per distinct text, and at most one negated copy of each
    assert len({id(terms) for terms in parsed._table.values()}) <= 2 * len(sides)
    assert parsed == t6


def test_serializer_walks_the_table_in_pair_order():
    # the lines come in (i, j) order with i <= j, as an all-pairs walk gives
    for alg in (torus(4), tensor(projective_space(2), sphere(3))):
        body = serialize_structure_constants(alg).split("products:\n", 1)[1]
        pairs = [(i, j) for i in range(alg.dim) for j in range(i, alg.dim)
                 if alg.products.get((i, j))]
        assert body.splitlines() == [
            f"{alg.labels[i]} {alg.labels[j]} = " + " + ".join(
                f"{c}*{alg.labels[k]}" for k, c in sorted(alg.products[i, j].items()))
            for i, j in pairs]


def test_serializer_omits_zero_rows():
    text = serialize_structure_constants(sphere(2))
    assert "x x" not in text


def round_trip(a):
    """The table that parse_structure_constants builds from a's text, as
    its validate() call sees it, and the violations the parse raises."""
    built = []
    validate = GradedAlgebra.validate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GradedAlgebra, "validate",
                      lambda self: built.append(self) or validate(self))
        try:
            parse_structure_constants(serialize_structure_constants(a))
            violations = []
        except ValidationError as exc:
            violations = exc.violations
    [again] = built
    return again, violations


def test_serializer_keeps_a_pair_that_breaks_commutativity():
    # x y = z with y x = 2 z, or y x = 2 z alone: a line for y x and, when
    # x y is absent, "x y = 0" keep the parser from inferring either entry
    one, x, y, z = range(4)
    products = {(one, i): {i: 1} for i in range(4)}
    products.update({(i, one): {i: 1} for i in range(1, 4)})
    products[(x, y)], products[(y, x)] = {z: 1}, {z: 2}
    lines = {"x y = 1*z", "y x = 2*z"}
    for table in (products, {key: terms for key, terms in products.items() if key != (x, y)}):
        a = GradedAlgebra(["1", "x", "y", "z"], [0, 2, 2, 4], one, table)
        text = serialize_structure_constants(a)
        assert set(text.split("products:\n")[1].splitlines()) >= lines
        again, violations = round_trip(a)
        assert again == a
        assert violations == a.validate() == ["graded commutativity: y * x != (x * y)"]
        lines = {"x y = 0", "y x = 2*z"}


@st.composite
def beyond_the_format(draw, algebra):
    """(degrees, products) of algebra with, at times, a degree made
    negative, and none, one or two table terms added whose key or index may
    lie outside the basis, below 0 or at dim and above."""
    dim = algebra.dim
    degrees = list(algebra.degrees)
    if draw(st.integers(0, 3)) == 0:
        degrees[draw(st.integers(0, dim - 1))] = draw(st.integers(-3, -1))
    products = {key: dict(terms) for key, terms in algebra.products.items()}
    index = st.one_of(st.integers(0, dim - 1), st.integers(-2, -1), st.integers(dim, dim + 2))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        products.setdefault((draw(index), draw(index)), {})[draw(index)] = draw(
            st.sampled_from([-1, 1, 2]))
    return degrees, products


@given(presentations().filter(lambda p: prod(g.truncation for g in p.generators) <= 16),
       st.data())
@settings(max_examples=150, deadline=None)
def test_serializer_round_trips_corrupt_tables(p, data):
    # a negative degree, and then a table naming an index outside the
    # basis, is refused when the algebra is built; every algebra that is
    # built round-trips, and validate() sees the same
    a = data.draw(corrupted(build_monomial_algebra(p)))
    degrees, products = data.draw(beyond_the_format(a))
    negative = [k for k, d in enumerate(degrees) if d < 0]
    if negative:
        k = negative[0]
        message = f"basis label {a.labels[k]!r} has negative degree {degrees[k]}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GradedAlgebra(a.labels, degrees, a.unit, products)
        return
    if any(not 0 <= x < a.dim for (i, j), terms in products.items() for x in (i, j, *terms)):
        with pytest.raises(ValueError, match=f"names -?[0-9]+, outside 0..{a.dim - 1}$"):
            GradedAlgebra(a.labels, degrees, a.unit, products)
        return
    bad = GradedAlgebra(a.labels, degrees, a.unit, products)
    again, violations = round_trip(bad)
    assert again == bad
    assert violations == bad.validate()


def test_serializer_refuses_what_it_would_write_wrongly():
    # a negative degree used to be written and then refused on reading; an
    # index past the basis raised IndexError, and a negative one wrapped to
    # the last label: term -1 of x x was written as "x x = 1*x", key (-1, 1)
    # as a second "x x" line; now no algebra holds such a degree or index,
    # and the constructor refuses each of these tables
    unit_laws = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    message = "basis label 'x' has negative degree -2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GradedAlgebra(["1", "x"], [0, -2], 0, unit_laws)
    for extra, message in (({(1, 1): {5: 1}}, "table entry of (1, 1) names 5, outside 0..1"),
                           ({(1, 1): {-1: 1}}, "table entry of (1, 1) names -1, outside 0..1"),
                           ({(-1, 1): {1: 1}}, "table key (-1, 1) names -1, outside 0..1")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GradedAlgebra(["1", "x"], [0, 2], 0, {**unit_laws, **extra})


@pytest.mark.parametrize("label", ["a b", "x#", "0", "x=y", "x+y", "unit:x", "1"])
def test_serializer_refuses_a_label_its_parser_rejects(label):
    # each would come back as a ParseError; the first such label is named
    message = (f"duplicate basis label {label!r}" if label == "1" else
               f"illegal basis label {label!r}: the structure-constant format cannot carry it")
    for labels in (["1", label], ["1", "x", label, "a b"]):
        products = {(0, i): {i: 1} for i in range(len(labels))}
        a = GradedAlgebra(labels, [0] + [2] * (len(labels) - 1), 0, products)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            serialize_structure_constants(a)


# --- reading lines ---

@pytest.mark.parametrize("sep", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_lines_are_read_in_chunks_as_splitlines_reads_them(monkeypatch, sep):
    # every chunk size from 1 to 3 puts some "\r\n" across a boundary
    text = sep.join(["name a", "", "b # c", "#", "\r\nd\r", " e", "\rf\r", "g"])
    want = [(n, raw.partition("#")[0].strip()) for n, raw in enumerate(text.splitlines(), 1)]
    for chunk in (1, 2, 3):
        monkeypatch.setattr(fileformats, "_CHUNK", chunk)
        for tail in ("", sep, "\r"):
            assert list(fileformats._split_lines(text + tail)) == (
                text + tail).splitlines(keepends=True)
        assert list(fileformats._meaningful_lines(text)) == [(n, line) for n, line in want
                                                             if line]


# the line breaks of str.splitlines, "\r\n" among them, and what a line holds
LINE_PARTS = ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
              "\r\n", "a", "b", "#", " "]


@given(st.lists(st.sampled_from(LINE_PARTS), max_size=30).map("".join))
@settings(max_examples=300, deadline=None)
def test_random_mixes_of_breaks_are_read_as_splitlines_reads_them(text):
    want = [(n, raw.partition("#")[0].strip()) for n, raw in enumerate(text.splitlines(), 1)]
    with pytest.MonkeyPatch.context() as patch:
        for chunk in range(1, 9):
            patch.setattr(fileformats, "_CHUNK", chunk)
            assert list(fileformats._split_lines(text)) == text.splitlines(keepends=True)
            assert list(fileformats._meaningful_lines(text)) == [(n, line) for n, line in want
                                                                 if line]


def test_a_text_with_no_line_break_is_joined_once(monkeypatch):
    # one chunk per character: joining the line so far at every chunk would
    # copy some 2 * 10**10 characters
    monkeypatch.setattr(fileformats, "_CHUNK", 1)
    text = "x" * 200_000
    start = time.perf_counter()
    assert list(fileformats._meaningful_lines(text)) == [(1, text)]
    assert time.perf_counter() - start < 10


def test_a_parse_that_stops_early_splits_little_of_the_text():
    # the budget stops the parse at line 12 of 400 000; detect_format
    # reads one line
    text = "".join(f"generator e{k} degree 1\n" for k in range(400_000))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="^line 12: the presentation needs a table"):
            load_algebra_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"{peak / 2**20:.1f} MB traced"


def test_parsing_fl5_peaks_below_four_times_what_it_keeps(tmp_path):
    # the parser's lines, parsed right-hand sides and mirrored entries are
    # gone before validate() builds its index, so the two peaks do not
    # stack.  A fresh interpreter, as the table is small enough that what
    # earlier tests leave on the free lists would shift its traced size
    target = tmp_path / "fl5.alg"
    target.write_text(serialize_structure_constants(flag_manifold(5)))
    script = (
        "import json, sys, tracemalloc\n"
        "from negder import parse_structure_constants\n"
        "text = open(sys.argv[1]).read()\n"
        "tracemalloc.start()\n"
        "parsed = parse_structure_constants(text)\n"
        "print(json.dumps(tracemalloc.get_traced_memory()))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(target)],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    retained, peak = json.loads(proc.stdout)
    assert peak <= 4.0 * retained, f"the parse peaks {peak / retained:.2f} x the algebra"


# --- the combined loader ---

def test_algebra_file_records_format():
    doc = AlgebraFile(detect_format(MINIMAL_TABLE), MINIMAL_TABLE)
    assert doc.format == "structure_constants"
    assert doc.build().dim == 2
    text = "generator x degree 2 truncate 3\n"
    doc = AlgebraFile(detect_format(text), text)
    assert doc.format == "presentation"
    assert doc.build().dim == 3
    with pytest.raises(ValueError, match="^unknown format 'bogus'$"):
        AlgebraFile("bogus", text).build()


def test_load_algebra_text_handles_both_formats():
    from_table = load_algebra_text(MINIMAL_TABLE)
    from_pres = load_algebra_text("generator x degree 2\n")
    assert from_table.degrees == from_pres.degrees == [0, 2]


@pytest.mark.parametrize("read, text, shown", [
    (load_algebra_text, b"name x\n", "b'name x\\n'"),
    (parse_presentation, None, "None"),
    (parse_structure_constants, 5, "5"),
    (detect_format, ["basis:"], "['basis:']"),
    (lambda text: AlgebraFile(PRESENTATION, text).build(), b"name x\n", "b'name x\\n'"),
    (lambda text: AlgebraFile(STRUCTURE_CONSTANTS, text).build(), b"x" * 100,
     f"b'{'x' * 38}... (103 characters)"),
], ids=["load bytes", "presentation None", "table int", "detect list", "file presentation",
        "file table"])
def test_a_text_that_is_not_a_str_is_named(read, text, shown):
    with pytest.raises(ValueError) as info:
        read(text)
    assert type(info.value) is ValueError
    assert str(info.value) == f"an algebra text must be a str, not {shown}"

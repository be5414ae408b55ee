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
                    build_monomial_algebra,
                    detect_format, fileformats, load_algebra_text, parse_presentation,
                    parse_structure_constants, serialize_structure_constants,
                    tensor)
from negder.corpus import names as corpus_names
from negder.corpus import text as corpus_text
from negder.fileformats import _coefficient, _parse_terms

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
    with pytest.raises(ParseError):
        detect_format("# only comments\n\n")
    with pytest.raises(ParseError):
        detect_format("widget x\n")


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
    assert len({id(terms) for terms in parsed.products.values()}) <= 2 * len(sides)
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
    """algebra with, at times, a degree made negative, and none, one or
    two table terms added whose key or index may lie outside the basis,
    below 0 or at dim and above."""
    dim = algebra.dim
    degrees = list(algebra.degrees)
    if draw(st.integers(0, 3)) == 0:
        degrees[draw(st.integers(0, dim - 1))] = draw(st.integers(-3, -1))
    products = {key: dict(terms) for key, terms in algebra.products.items()}
    index = st.one_of(st.integers(0, dim - 1), st.integers(-2, -1), st.integers(dim, dim + 2))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        products.setdefault((draw(index), draw(index)), {})[draw(index)] = draw(
            st.sampled_from([-1, 1, 2]))
    return GradedAlgebra(algebra.labels, degrees, algebra.unit, products)


@given(presentations().filter(lambda p: prod(g.truncation for g in p.generators) <= 16),
       st.data())
@settings(max_examples=150, deadline=None)
def test_serializer_round_trips_corrupt_tables(p, data):
    # the serializer raises exactly where the format ends: at a negative
    # degree or a basis-index violation; otherwise validate() sees the same
    bad = data.draw(beyond_the_format(data.draw(corrupted(build_monomial_algebra(p)))))
    expected = bad.validate()
    index = [v for v in expected if v.startswith("basis index:")]
    if min(bad.degrees) < 0:
        with pytest.raises(ValueError, match="negative degree"):
            serialize_structure_constants(bad)
    elif index:
        with pytest.raises(ValueError, match=f"^{re.escape(index[0])}$"):
            serialize_structure_constants(bad)
    else:
        again, violations = round_trip(bad)
        assert again == bad
        assert violations == expected


def test_serializer_refuses_what_it_would_write_wrongly():
    # a negative degree used to be written and then refused on reading; an
    # index past the basis raised IndexError, and a negative one wrapped to
    # the last label: term -1 of x x was written as "x x = 1*x", key (-1, 1)
    # as a second "x x" line
    unit_laws = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    cases = [([0, -2], {}, "basis label 'x' has negative degree -2"),
             ([0, 2], {(1, 1): {5: 1}}, "basis index: table entry (1, 1) names 5, outside 0..1"),
             ([0, 2], {(1, 1): {-1: 1}}, "basis index: table entry (1, 1) names -1, outside 0..1"),
             ([0, 2], {(-1, 1): {1: 1}}, "basis index: table entry (-1, 1) names -1, outside 0..1")]
    for degrees, extra, message in cases:
        a = GradedAlgebra(["1", "x"], degrees, 0, {**unit_laws, **extra})
        with pytest.raises(ValueError, match=re.escape(message)):
            serialize_structure_constants(a)
        if extra:
            assert a.validate() == [message]


@pytest.mark.parametrize("label", ["a b", "x#", "0", "x=y", "x+y", "unit:x", "1"])
def test_serializer_refuses_a_label_its_parser_rejects(label):
    # each would come back as a ParseError; the first such label is named
    for labels in (["1", label], ["1", "x", label, "a b"]):
        products = {(0, i): {i: 1} for i in range(len(labels))}
        a = GradedAlgebra(labels, [0] + [2] * (len(labels) - 1), 0, products)
        with pytest.raises(ValueError, match=re.escape(repr(label))):
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


def test_load_algebra_text_handles_both_formats():
    from_table = load_algebra_text(MINIMAL_TABLE)
    from_pres = load_algebra_text("generator x degree 2\n")
    assert from_table.degrees == from_pres.degrees == [0, 2]

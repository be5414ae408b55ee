import json
import os
import subprocess
import sys
import tracemalloc
from enum import IntEnum
from fractions import Fraction
from itertools import product as cartesian
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ROOT, accumulating_tensor, all_pairs_monomial_algebra, basis_changed,
                      cap_memory, corrupted, crowded, echelon_generators,
                      exhaustive_validate, key_sorted_basis, point, presentations,
                      projective_space, quadratic_sort_sign, sphere, src_env, torus)
from negder import (Element, Generator, GradedAlgebra, GradedBasis, GradedLinearMap,
                    LambdaFamily, Presentation, algebra, build_monomial_algebra, corpus,
                    derivation_space, load_algebra_text, monomial_basis,
                    parse_structure_constants, serialize_structure_constants, tensor)


def test_projective_plane_basis():
    cp2 = projective_space(2)
    assert cp2.labels == ["1", "x", "x^2"]
    assert cp2.degrees == [0, 2, 4]
    assert cp2.unit == 0
    assert cp2.top_degree == 4
    assert cp2.dim == 3


def test_basis_sorted_by_degree_then_exponent():
    alg = build_monomial_algebra(Presentation(
        "mix", (Generator("x", 2, 3), Generator("y", 4, 2))))
    # degree 4 holds both y (0,1) and x^2 (2,0); lex order puts y first
    assert alg.labels == ["1", "x", "y", "x^2", "x*y", "x^2*y"]
    assert alg.degrees == [0, 2, 4, 4, 6, 8]


def test_odd_generator_squares_to_zero():
    s3 = sphere(3)
    x = s3.basis_element(1)
    assert not s3.multiply(x, x)


def test_odd_odd_anticommute():
    alg = build_monomial_algebra(Presentation(
        "ab", (Generator("a", 3), Generator("b", 5))))
    ia, ib, iab = (alg.labels.index(s) for s in ("a", "b", "a*b"))
    assert alg.products[(ia, ib)] == {iab: 1}
    assert alg.products[(ib, ia)] == {iab: -1}


def test_odd_generator_rejects_higher_truncation():
    with pytest.raises(ValueError, match="truncate at 2"):
        build_monomial_algebra(Presentation("bad", (Generator("a", 3, 4),)))


def test_presentation_over_the_table_budget_is_rejected():
    # just over the limit, so a broken budget costs one large build, not
    # the machine's memory; test_cli runs the huge inputs in a capped child
    assert algebra.MAX_TABLE_ENTRIES < 707 * 708 // 2
    with pytest.raises(ValueError, match="250278 entries, over the limit"):
        build_monomial_algebra(Presentation("CP706", (Generator("x", 2, 707),)))
    exterior = Presentation("T12", tuple(Generator(f"e{k}", 1) for k in range(12)))
    with pytest.raises(ValueError, match=f"{3 ** 12} entries, over the limit"):
        build_monomial_algebra(exterior)


def test_the_basis_alone_is_checked_like_the_build():
    for p in (Presentation("CP706", (Generator("x", 2, 707),)),
              Presentation("T12", tuple(Generator(f"e{k}", 1) for k in range(12))),
              Presentation("bad", (Generator("a", 3, 4),)),
              Presentation("dup", (Generator("a", 2), Generator("a", 4)))):
        with pytest.raises(ValueError) as built:
            build_monomial_algebra(p)
        with pytest.raises(ValueError) as alone:
            monomial_basis(p)
        assert str(alone.value) == str(built.value)


@pytest.mark.parametrize("symbol", ["x^2", "1", "0", "a+b", "unit:a", "a b", "a#b", "a*b",
                                    "a=b", "", " x", "x\n", None, 3])
def test_generator_symbols_that_break_labels_are_rejected(symbol):
    # x^2 next to x truncating at 3 would label two basis elements alike, and
    # 1 would share the unit's label; the rest break the table format
    p = Presentation("p", (Generator("x", 2, 3), Generator(symbol, 4)))
    for check in (monomial_basis, build_monomial_algebra):
        with pytest.raises(ValueError, match="illegal generator symbol"):
            check(p)


def test_accepted_generator_symbols_survive_the_table_format():
    p = Presentation("p", (Generator("x_1", 2, 3), Generator("α", 3), Generator("basis:", 2),
                           Generator("products:", 1)))
    alg = build_monomial_algebra(p)
    assert len(set(alg.labels)) == alg.dim
    assert parse_structure_constants(serialize_structure_constants(alg)) == alg


def symbol_accepted(symbol):
    try:
        algebra.check_generator(Generator(symbol, 2), set(), 1)
    except ValueError:
        return False
    return True


@given(st.lists(st.text(min_size=1, max_size=5).filter(symbol_accepted),
                min_size=1, max_size=3, unique=True),
       st.integers(0, 5), st.sampled_from("*^"))
@settings(max_examples=200, deadline=None)
def test_every_accepted_symbol_makes_labels_the_table_format_carries(symbols, at, mark):
    # one grammar: the monomial labels of accepted symbols are legal labels,
    # and the table round-trips through its text
    p = Presentation("p", tuple(Generator(s, d, 3 if d % 2 == 0 else 2)
                                for s, d in zip(symbols, (2, 3, 4))))
    alg = build_monomial_algebra(p)
    assert all(algebra._legal_label(label) for label in alg.labels)
    assert len(set(alg.labels)) == alg.dim
    assert load_algebra_text(serialize_structure_constants(alg)) == alg
    # a * or ^ anywhere in an accepted symbol, or the symbol 1, is rejected
    symbol = symbols[0]
    assert not symbol_accepted(symbol[:at] + mark + symbol[at:])
    assert not symbol_accepted("1")


@given(presentations())
@settings(max_examples=60, deadline=None)
def test_the_basis_alone_is_the_basis_of_the_build(p):
    basis, built = monomial_basis(p), build_monomial_algebra(p)
    assert type(basis) is GradedBasis
    assert not hasattr(basis, "products")
    assert (basis.labels, basis.degrees, basis.unit, basis.name) == (
        built.labels, built.degrees, built.unit, built.name)
    assert basis.monomial_exponents == built.monomial_exponents
    assert basis.dim == built.dim and basis.top_degree == built.top_degree
    assert all(basis.graded_piece(n) == built.graded_piece(n)
               for n in range(-1, built.top_degree + 2))


@given(presentations())
@settings(max_examples=60, deadline=None)
def test_the_basis_equals_the_key_sorted_oracle(p):
    exps, labels, degrees = key_sorted_basis(p)
    basis = monomial_basis(p)
    assert basis.monomial_exponents == exps
    assert (basis.labels, basis.degrees) == (labels, degrees)
    # the table over that basis is the one the all-pairs oracle builds
    assert_builder_matches_oracle(p)


def test_the_cp399_basis_equals_the_key_sorted_oracle():
    p = Presentation("CP399", (Generator("x", 2, 400),))
    basis = monomial_basis(p)
    assert (basis.monomial_exponents, basis.labels, basis.degrees) == key_sorted_basis(p)


def test_table_size_is_the_product_of_triangular_numbers():
    cp399 = build_monomial_algebra(Presentation("CP399", (Generator("x", 2, 400),)))
    assert len(cp399.products) == 80200 <= algebra.MAX_TABLE_ENTRIES
    assert len(torus(7).products) == 3 ** 7
    mixed = build_monomial_algebra(Presentation(
        "mix", (Generator("x", 2, 3), Generator("y", 3), Generator("z", 4, 4))))
    assert len(mixed.products) == 6 * 3 * 10


def test_duplicate_symbols_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_monomial_algebra(Presentation(
            "bad", (Generator("a", 2, 2), Generator("a", 4, 2))))


def test_point_algebra():
    pt = point()
    assert pt.labels == ["1"]
    assert pt.top_degree == 0
    assert not pt.validate()


def test_multiply_unit_and_powers():
    cp2 = projective_space(2)
    one, x, x2 = (cp2.basis_element(i) for i in range(3))
    assert cp2.multiply(one, x) == x
    assert cp2.multiply(x, x) == x2
    assert not cp2.multiply(x, x2)
    combo = cp2.multiply(x + 2 * one, x)
    assert combo == x2 + 2 * x


@pytest.mark.parametrize("index", [99, 3, -1])
def test_multiply_rejects_indices_outside_the_basis(index):
    # an index with no table entry used to multiply to zero
    cp2 = projective_space(2)
    one = cp2.basis_element(0)
    for u, v in ((Element({index: 1}), one), (one, Element({1: 1, index: 2}))):
        with pytest.raises(ValueError, match=f"basis index {index} is outside 0..2"):
            cp2.multiply(u, v)


def test_multiply_is_graded():
    for alg in (projective_space(3), torus(3), sphere(5),
                tensor(projective_space(2), sphere(4))):
        for i in range(alg.dim):
            for j in range(alg.dim):
                prod = alg.multiply(alg.basis_element(i), alg.basis_element(j))
                want = alg.degrees[i] + alg.degrees[j]
                assert all(alg.degrees[k] == want for k in prod.coeffs)


def test_graded_piece():
    cp2 = projective_space(2)
    assert cp2.graded_piece(0) == [0]
    assert cp2.graded_piece(2) == [1]
    assert cp2.graded_piece(3) == []
    assert cp2.graded_piece(7) == []


def test_tensor_with_point_is_isomorphic():
    cp2 = projective_space(2)
    prod = tensor(cp2, point())
    assert prod.degrees == cp2.degrees
    assert prod.unit == cp2.unit
    assert prod.products == cp2.products
    assert prod.labels != cp2.labels  # only the labels differ


def test_tensor_dimension_and_koszul_sign():
    s3 = sphere(3)
    both = tensor(s3, s3)
    assert both.dim == 4
    assert tensor(projective_space(2), s3).dim == 6
    # (1 (x) y) * (x (x) 1) = -(x (x) y): odd classes swap past each other
    one_y = both.basis_element(1)
    x_one = both.basis_element(2)
    assert both.multiply(one_y, x_one) == Element({3: -1})
    assert both.multiply(x_one, one_y) == Element({3: 1})


def test_tensor_output_validates():
    assert not tensor(sphere(3), sphere(3)).validate()
    assert not tensor(projective_space(2), torus(2)).validate()


def test_tensor_flattening_is_associative():
    a, b, c = projective_space(1), sphere(3), sphere(2)
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert left.degrees == right.degrees
    assert left.unit == right.unit
    assert left.products == right.products


@given(crowded(), presentations(), st.data())
@settings(max_examples=40, deadline=None)
def test_tensor_equals_the_accumulating_oracle(p, q, data):
    # a basis change gives entries of several terms with Fraction values
    a = basis_changed(build_monomial_algebra(p), data)
    b = build_monomial_algebra(q)
    if len(a.products) * len(b.products) > 4000:
        return
    for x, y in ((a, b), (b, a)):
        got, want = tensor(x, y), accumulating_tensor(x, y)
        assert got == want and got.name == want.name
        assert list(got.products.items()) == list(want.products.items())


def test_element_arithmetic():
    e = Element({0: Fraction(1, 2), 2: -1})
    assert e.coeff(0) == Fraction(1, 2)
    assert e.coeff(1) == 0
    assert not (e - e)
    assert -e == Element({0: Fraction(-1, 2), 2: 1})
    assert 2 * e == Element({0: 1, 2: -2})
    assert Element({0: 0}) == Element()


def test_element_keeps_exact_values_and_converts_the_rest():
    class Exact(Fraction):
        pass

    half = Fraction(1, 2)
    # text is read by fileformats alone: a str key or value is rejected
    for coeffs in ({"2": 1}, {2: "1/3"}, {0: half, 1: 2, "2": "1/3", 3: Exact(3), 4: 0}):
        with pytest.raises(ValueError, match="must be an int"):
            Element(coeffs)
    e = Element({0: half, 1: 2, 2: Fraction(1, 3), 3: Exact(3), 4: 0})
    assert e.coeffs == {0: half, 1: 2, 2: Fraction(1, 3), 3: 3}
    # held as _fold holds them: ints where integral, Fractions otherwise
    assert [type(c) for c in e.coeffs.values()] == [Fraction, int, Fraction, int]
    assert all(type(i) is int for i in e.coeffs)
    assert e.coeffs[0] is half  # a non-integral Fraction is kept, not rebuilt
    assert type(Element({0: Fraction(4, 2)}).coeffs[0]) is int
    assert [type(c) for c in (Fraction(1, 2) * Element({0: 2, 1: 3})).coeffs.values()] \
        == [int, Fraction]
    cp2 = projective_space(2)
    assert type(cp2.basis_element(2).coeffs[2]) is int and cp2.basis_element(2).coeff(0) == 0


def test_an_index_beyond_the_basis_is_named():
    # basis_element(99) used to return Element({99: 1}), on which
    # format_element raised IndexError
    cp2 = projective_space(2)
    with pytest.raises(ValueError, match="basis index 99 is outside 0..2"):
        cp2.basis_element(99)
    with pytest.raises(ValueError, match="basis index 99 is outside 0..2"):
        cp2.format_element(Element({99: 1}))


def test_a_negative_index_does_not_wrap():
    # format_element(Element({-2: 1})) used to print x, and basis_element(-1)
    # to format as x^2
    cp2 = projective_space(2)
    with pytest.raises(ValueError, match="basis index -1 is outside 0..2"):
        cp2.basis_element(-1)
    with pytest.raises(ValueError, match="basis index -2 is outside 0..2"):
        cp2.format_element(Element({-2: 1}))
    with pytest.raises(ValueError, match="basis index -2 is outside 0..2"):
        cp2.format_element(Element({0: 1, -2: 1}))


def test_a_bool_is_no_index():
    # image(cp2, True) used to read index 1
    cp2 = projective_space(2)
    ident = GradedLinearMap(0, {2: [[1]]})
    for call in (lambda: ident.image(cp2, True), lambda: cp2.basis_element(True),
                 lambda: cp2.graded_piece(True)):
        with pytest.raises(ValueError, match="must be an int, not True"):
            call()


def test_format_element():
    cp2 = projective_space(2)
    assert cp2.format_element(Element()) == "0"
    assert cp2.format_element(Element({0: 1})) == "1"
    assert cp2.format_element(Element({1: -2, 2: Fraction(1, 3)})) == "-2*x + 1/3*x^2"
    assert cp2.format_element(Element({1: 1, 2: -1})) == "x - x^2"


def test_validate_accepts_builder_output():
    for alg in (projective_space(4), sphere(7), torus(3),
                build_monomial_algebra(Presentation(
                    "mixed", (Generator("a", 3), Generator("x", 2, 4))))):
        assert alg.validate() == []


def test_validate_degree_corruption():
    cp2 = projective_space(2)
    products = dict(cp2.products)
    products[(1, 1)] = {1: Fraction(1)}  # x * x = x breaks only additivity
    bad = GradedAlgebra(cp2.labels, cp2.degrees, cp2.unit, products)
    violations = bad.validate()
    assert len(violations) == 1
    assert "degree additivity" in violations[0]


def test_validate_commutativity_corruption():
    alg = build_monomial_algebra(Presentation(
        "ab", (Generator("a", 3), Generator("b", 5))))
    ia, ib, iab = (alg.labels.index(s) for s in ("a", "b", "a*b"))
    products = dict(alg.products)
    products[(ib, ia)] = {iab: Fraction(1)}  # drop the sign of b*a
    bad = GradedAlgebra(alg.labels, alg.degrees, alg.unit, products)
    violations = bad.validate()
    assert len(violations) == 1
    assert "graded commutativity" in violations[0]


def test_validate_missing_unit_row():
    cp1 = projective_space(1)
    products = {k: v for k, v in cp1.products.items() if k != (0, 1)}
    bad = GradedAlgebra(cp1.labels, cp1.degrees, cp1.unit, products)
    assert any("unit law" in v for v in bad.validate())


def test_constructor_rejects_labels_and_degrees_of_different_lengths():
    with pytest.raises(ValueError, match="2 labels but 1 degrees"):
        GradedAlgebra(["1", "x"], [0], 0, {(0, 0): {0: 1}})


@pytest.mark.parametrize("unit", [1, -1])
def test_constructor_rejects_a_unit_outside_the_basis(unit):
    with pytest.raises(ValueError, match=f"unit {unit} is not a basis index"):
        GradedAlgebra(["1"], [0], unit, {(0, 0): {0: 1}})


@pytest.mark.parametrize("products, violation", [
    ({(0, 0): {5: 1}}, "basis index: table entry (0, 0) names 5, outside 0..0"),
    ({(0, 3): {0: 1}}, "basis index: table entry (0, 3) names 3, outside 0..0"),
])
def test_validate_reports_an_index_outside_the_basis(products, violation):
    assert GradedAlgebra(["1"], [0], 0, products).validate() == [violation]


def test_validate_returns_only_the_index_violations_in_key_order():
    cp1 = projective_space(1)
    products = dict(cp1.products)
    products[(1, 1)] = {-1: 1, 4: 2, 0: 1}
    products[(-2, 0)] = {0: 1}
    assert GradedAlgebra(cp1.labels, cp1.degrees, cp1.unit, products).validate() == [
        "basis index: table entry (-2, 0) names -2, outside 0..1",
        "basis index: table entry (1, 1) names -1, outside 0..1",
        "basis index: table entry (1, 1) names 4, outside 0..1",
    ]


def test_validate_associativity_corruption():
    # degrees, unit and commutativity all hold; only x * y = 0 clashes
    # with x * x = z and y * z = w
    products = {(0, i): {i: 1} for i in range(5)}
    products.update({(i, 0): {i: 1} for i in range(1, 5)})
    for i, j, k in ((1, 1, 3), (1, 3, 4), (3, 1, 4), (2, 3, 4), (3, 2, 4)):
        products[(i, j)] = {k: 1}
    bad = GradedAlgebra(["1", "x", "y", "z", "w"], [0, 2, 2, 4, 6], 0, products)
    assert bad.validate() == [
        "associativity: (x * x) * y != x * (x * y)",
        "associativity: (y * x) * x != y * (x * x)",
    ]
    assert exhaustive_validate(bad) == bad.validate()


def test_validate_multiplies_only_where_a_side_can_be_nonzero(monkeypatch):
    # a triple with neither e_i e_j nor e_j e_k in the table is zero on both
    # sides; the others are summed straight from the table dicts, with no
    # multiply call and no Element built
    t4 = torus(4)
    live = sum((i, j) in t4.products or (j, k) in t4.products
               for i, j, k in cartesian(range(t4.dim), repeat=3))
    assert live == 1967
    calls = []
    multiply, init = GradedAlgebra.multiply, Element.__init__
    monkeypatch.setattr(GradedAlgebra, "multiply",
                        lambda self, u, v: calls.append("multiply") or multiply(self, u, v))
    monkeypatch.setattr(Element, "__init__",
                        lambda self, coeffs=None: calls.append("Element") or init(self, coeffs))
    assert t4.validate() == []
    assert calls == []


@given(presentations().filter(lambda p: prod(g.truncation for g in p.generators) <= 16),
       st.data())
@settings(max_examples=60, deadline=None)
def test_validate_equals_exhaustive_oracle(p, data):
    a = build_monomial_algebra(p)
    assert a.validate() == exhaustive_validate(a) == []
    bad = data.draw(corrupted(a))
    assert bad.validate() == exhaustive_validate(bad)


@given(presentations(), presentations(), st.data())
@settings(max_examples=30, deadline=None)
def test_validate_equals_exhaustive_oracle_on_tensors(p, q, data):
    a, b = build_monomial_algebra(p), build_monomial_algebra(q)
    if a.dim * b.dim > 16:
        return
    ab = tensor(a, b)
    assert ab.validate() == exhaustive_validate(ab) == []
    bad = data.draw(corrupted(ab))
    assert bad.validate() == exhaustive_validate(bad)


@given(crowded(), st.data())
@settings(max_examples=60, deadline=None)
def test_validate_equals_exhaustive_oracle_on_basis_changed_tables(p, data):
    # a change of basis gives entries of several terms, whose contributions
    # can cancel; the corrupted variants get the usual single-term edits
    b = basis_changed(build_monomial_algebra(p), data)
    assert b.validate() == exhaustive_validate(b) == []
    bad = data.draw(corrupted(b))
    assert bad.validate() == exhaustive_validate(bad)


@st.composite
def rescaled_pair(draw, algebra):
    """algebra's table with one pair (i, j), |i|, |j| > 0, and its
    transpose (j, i) scaled by one factor.  Degrees, the unit and graded
    commutativity stay intact, so associativity alone can break."""
    degrees = algebra.degrees
    keys = sorted((i, j) for i, j in algebra.products
                  if i <= j and degrees[i] > 0 and degrees[j] > 0)
    products = dict(algebra.products)
    if keys:
        i, j = draw(st.sampled_from(keys))
        factor = draw(st.sampled_from([0, -1, 2, Fraction(1, 2), Fraction(-3, 2)]))
        for key in {(i, j), (j, i)}:
            products[key] = {k: factor * c for k, c in algebra.products[key].items()}
    return GradedAlgebra(algebra.labels, degrees, algebra.unit, products)


@given(presentations().filter(lambda p: prod(g.truncation for g in p.generators) <= 16),
       st.data())
@settings(max_examples=60, deadline=None)
def test_validate_equals_exhaustive_oracle_on_rescaled_pairs(p, data):
    a = build_monomial_algebra(p)
    bad = data.draw(rescaled_pair(a))
    assert [v for v in bad.validate() if not v.startswith("associativity: ")] == []
    assert bad.validate() == exhaustive_validate(bad)


@given(crowded(), presentations(), st.data())
@settings(max_examples=60, deadline=None)
def test_validate_equals_exhaustive_oracle_on_rescaled_pairs_of_mixed_tables(p, q, data):
    # basis-changed tables, whose generators are not basis monomials, and
    # tensor products
    a = basis_changed(build_monomial_algebra(p), data)
    b = build_monomial_algebra(q)
    for table in (a, tensor(b, b) if b.dim <= 4 else b):
        bad = data.draw(rescaled_pair(table))
        assert bad.validate() == exhaustive_validate(bad)


def test_validate_walks_the_generator_rows_unless_it_finds_a_violation(monkeypatch):
    passes = []
    real = GradedAlgebra._associativity
    monkeypatch.setattr(GradedAlgebra, "_associativity",
                        lambda self, only: passes.append(only) or real(self, only))
    t4 = torus(4)
    assert t4.validate() == []
    # the unit row is left out: the unit laws have passed, so it holds no
    # violation
    rows = set(t4.generator_indices) - {t4.unit}
    assert passes == [rows] and len(rows) == 4
    # a violation reruns the pass over every row, for the full list
    del passes[:]
    products = dict(t4.products)
    i1, i2 = t4.labels.index("i1"), t4.labels.index("i2")
    for key in ((i1, i2), (i2, i1)):
        products[key] = {k: 2 * c for k, c in t4.products[key].items()}
    bad = GradedAlgebra(t4.labels, t4.degrees, t4.unit, products)
    violations = bad.validate()
    assert passes == [rows, None]
    assert violations == exhaustive_validate(bad) != []
    # a failed earlier check, and a degree 0 that is more than the unit
    # line, walk every row at once
    del passes[:]
    products[(i1, i2)] = products[(i2, i1)] = {0: 1}
    GradedAlgebra(t4.labels, t4.degrees, t4.unit, products).validate()
    qxq = GradedAlgebra(["1", "e"], [0, 0], 0, {(0, 0): {0: 1}, (0, 1): {1: 1},
                                                (1, 0): {1: 1}, (1, 1): {1: 1}})
    assert qxq.validate() == []
    assert passes == [None, None]


def test_a_unit_law_fault_alone_walks_every_row(monkeypatch):
    # 1 * x = 2 x is the only fault.  The generator pass, which skips the
    # unit row because the unit laws passed, must not run: the full pass
    # does, and reports every triple through the unit that fails.
    passes = []
    real = GradedAlgebra._associativity
    monkeypatch.setattr(GradedAlgebra, "_associativity",
                        lambda self, only: passes.append(only) or real(self, only))
    for a, label in ((projective_space(3), "x"), (torus(3), "i1")):
        x = a.labels.index(label)
        products = dict(a.products)
        products[(a.unit, x)] = {x: 2}
        bad = GradedAlgebra(a.labels, a.degrees, a.unit, products)
        del passes[:]
        violations = bad.validate()
        assert passes == [None]
        assert violations == exhaustive_validate(bad)
        assert violations[0] == f"unit law: 1 * {label} != {label}"
        assert any(v.startswith("associativity: (1 * ") for v in violations)


def test_the_generator_pass_reads_no_key_of_the_unit(monkeypatch):
    # the unit laws have passed, so every triple with the unit as j or k
    # associates, and degree additivity keeps the unit out of every product
    # of two non-unit elements: the unit's keys add nothing that pass needs.
    # A violation makes the full pass read every key, the unit's included.
    seen = []
    real = algebra._index

    def spy(table, skip):
        index = real(table, skip)
        seen.append((skip, *index))
        return index

    monkeypatch.setattr(algebra, "_index", spy)

    def keys(rows):
        return {(i, j) for i, row in rows.items() for j in row}

    def contributions(by_m):
        return sorted((j, k, m, c) for m, at in by_m.items() for j, k, c in at)

    t4 = torus(4)
    u = t4.unit
    assert t4.validate() == []
    [(skip, rows, by_m)] = seen
    assert skip == u
    assert u not in rows and all(u not in row for row in rows.values())
    assert all(u not in (j, k) for at in by_m.values() for j, k, c in at)
    assert keys(rows) == {key for key in t4.products if u not in key}
    del seen[:]
    products = dict(t4.products)
    i1, i2 = t4.labels.index("i1"), t4.labels.index("i2")
    for key in ((i1, i2), (i2, i1)):
        products[key] = {k: 2 * c for k, c in t4.products[key].items()}
    bad = GradedAlgebra(t4.labels, t4.degrees, t4.unit, products)
    assert bad.validate() == exhaustive_validate(bad) != []
    [(_, gen_rows, _), (skip, rows, by_m)] = seen
    assert u not in gen_rows
    assert skip is None and keys(rows) == set(bad.products)
    assert contributions(by_m) == sorted((j, k, m, c) for (j, k), terms in bad.products.items()
                                         for m, c in terms.items())


def test_a_unit_term_in_a_corrupt_product_reaches_the_full_pass():
    # b * b = 1 breaks degree additivity, so the full pass runs, and there
    # the unit's keys carry (b * b) * a = a, which b * (b * a) = 0 misses
    one, a, b, ab = range(4)
    products = {(one, i): {i: 1} for i in range(4)}
    products.update({(i, one): {i: 1} for i in range(1, 4)})
    products[(a, b)], products[(b, a)], products[(b, b)] = {ab: 1}, {ab: -1}, {one: 1}
    t2 = GradedAlgebra(["1", "a", "b", "ab"], [0, 1, 1, 2], one, products)
    assert t2.validate() == exhaustive_validate(t2) == [
        "degree additivity: b * b hits 1 of degree 0, expected 2",
        "graded commutativity: b * b != -(b * b)",
        "associativity: (a * b) * b != a * (b * b)",
        "associativity: (b * b) * a != b * (b * a)",
        "associativity: (b * b) * ab != b * (b * ab)",
        "associativity: (ab * b) * b != ab * (b * b)",
    ]


def test_validate_reads_the_generators_of_the_table_as_it_is():
    # x w = p, w w = q, w q = t, w t = 2 u and q q = u.  With x x = w the
    # generators are 1 and x; without it w is one too.  x then lies in
    # the left nucleus, and only the row of w sees (w w) q = u differ from
    # w (w q) = 2 u, so generators cached before the change miss it.
    labels = ["1", "x", "w", "p", "q", "t", "u"]
    one, x, w, p, q, t, u = range(7)
    products = {(one, i): {i: 1} for i in range(7)}
    products.update({(i, one): {i: 1} for i in range(1, 7)})
    for i, j, terms in ((x, x, {w: 1}), (x, w, {p: 1}), (w, w, {q: 1}),
                        (w, q, {t: 1}), (w, t, {u: 2}), (q, q, {u: 1})):
        products[(i, j)] = products[(j, i)] = terms
    a = GradedAlgebra(labels, [0, 2, 4, 6, 8, 12, 16], one, products)
    assert a.generator_indices == (one, x)
    del a.products[(x, x)]
    assert a.generator_indices == (one, x)  # cached, and now stale
    assert a.validate() == exhaustive_validate(a) == [
        "associativity: (w * w) * q != w * (w * q)",
        "associativity: (q * w) * w != q * (w * w)",
    ]


def sharing(products):
    """products with each entry replaced by the first entry of equal
    content, so that equal entries are one dict shared between keys."""
    first = {}
    return {key: first.setdefault(frozenset(terms.items()), terms)
            for key, terms in products.items()}


def keys_by_entry(products):
    """The keys of the table grouped by the identity of their entry."""
    groups = {}
    for key, terms in products.items():
        groups.setdefault(id(terms), []).append(key)
    return sorted(sorted(keys) for keys in groups.values())


@given(crowded(), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_validate_equals_exhaustive_oracle_on_shared_entries(p, change_basis, data):
    # basis-changed tables have non-integral coefficients, which the table
    # holds as Fractions and the integral ones as ints
    a = build_monomial_algebra(p)
    if change_basis:
        a = basis_changed(a, data)
    for products in (a.products, data.draw(corrupted(a)).products):
        products = sharing(products)
        shared = GradedAlgebra(a.labels, a.degrees, a.unit, products)
        kept = {key: terms for key, terms in products.items() if key in shared.products}
        assert keys_by_entry(shared.products) == keys_by_entry(kept)
        assert shared.validate() == exhaustive_validate(shared)
    assert shared.validate() == GradedAlgebra(
        a.labels, a.degrees, a.unit,
        {key: dict(terms) for key, terms in products.items()}).validate()


def with_unit_rows(dim, products):
    """products plus the unit laws of basis index 0 on dim elements."""
    table = {(0, i): {i: 1} for i in range(dim)}
    table.update({(i, 0): {i: 1} for i in range(1, dim)})
    table.update(products)
    return table


def test_validate_checks_a_shared_entry_of_mixed_degrees_under_each_key():
    # one entry u + w, of degrees 4 and 6, under x y, which wants degree
    # 4, and x v, which wants 6, and their mirrors: each key fails at the
    # term its own degree misses
    one, x, y, v, u, w = range(6)
    mixed = {u: 1, w: 1}
    a = GradedAlgebra(["1", "x", "y", "v", "u", "w"], [0, 2, 2, 4, 4, 6], one,
                      with_unit_rows(6, {(x, y): mixed, (y, x): mixed,
                                         (x, v): mixed, (v, x): mixed}))
    assert len({id(a.products[key]) for key in ((x, y), (y, x), (x, v), (v, x))}) == 1
    assert a.validate() == exhaustive_validate(a) == [
        "degree additivity: x * y hits w of degree 6, expected 4",
        "degree additivity: x * v hits u of degree 4, expected 6",
        "degree additivity: y * x hits w of degree 6, expected 4",
        "degree additivity: v * x hits u of degree 4, expected 6",
    ]


def test_validate_checks_each_key_of_a_shared_entry_and_mirror_pair():
    # a b, a c and b c share one entry t; b a and c a share its negation,
    # but c b holds t itself, so only the pair {b, c} breaks the sign
    one, a, b, c, t = range(5)
    plus, minus = {t: 1}, {t: -1}
    odd = GradedAlgebra(["1", "a", "b", "c", "t"], [0, 1, 1, 1, 2], one,
                        with_unit_rows(5, {(a, b): plus, (a, c): plus, (b, c): plus,
                                           (b, a): minus, (c, a): minus, (c, b): plus}))
    assert odd.validate() == exhaustive_validate(odd) == [
        "graded commutativity: c * b != -(b * c)",
    ]
    # one entry that is its own mirror under an odd pair and an even one:
    # the parity decides, not the entries alone
    one, a, x, y, b, t = range(6)
    same = {t: 1}
    mixed = GradedAlgebra(["1", "a", "x", "y", "b", "t"], [0, 1, 2, 2, 3, 4], one,
                          with_unit_rows(6, {(a, b): same, (b, a): same,
                                             (x, y): same, (y, x): same}))
    assert mixed.validate() == exhaustive_validate(mixed) == [
        "graded commutativity: b * a != -(a * b)",
    ]


def test_validate_reports_an_index_outside_the_basis_inside_a_shared_entry():
    # the entry t + e_9 sits under x y, y x and x 8; key (7, 0) has an
    # entry of its own
    one, x, y, t = range(4)
    stray = {t: 1, 9: 1}
    a = GradedAlgebra(["1", "x", "y", "t"], [0, 2, 2, 4], one,
                      with_unit_rows(4, {(x, y): stray, (y, x): stray, (x, 8): stray,
                                         (7, 0): {0: 1}}))
    assert a.validate() == exhaustive_validate(a) == [
        "basis index: table entry (1, 2) names 9, outside 0..3",
        "basis index: table entry (1, 8) names 8, outside 0..3",
        "basis index: table entry (1, 8) names 9, outside 0..3",
        "basis index: table entry (2, 1) names 9, outside 0..3",
        "basis index: table entry (7, 0) names 7, outside 0..3",
    ]


def cancelling_algebra(b_coeff=-1):
    """|x| = |y| = |z| = 2, x y = a + b, a z = t and b z = b_coeff * t, with
    every other product of positive degree zero.  With b_coeff = -1, both
    (x y) z and z (x y) have two contributions at t that cancel, while
    x (y z) and (z x) y have none."""
    labels = ["1", "x", "y", "z", "a", "b", "t"]
    one, x, y, z, a, b, t = range(7)
    products = {(one, i): {i: 1} for i in range(7)}
    products.update({(i, one): {i: 1} for i in range(1, 7)})
    for i, j, terms in ((x, y, {a: 1, b: 1}), (a, z, {t: 1}), (b, z, {t: b_coeff})):
        products[(i, j)] = products[(j, i)] = terms
    return GradedAlgebra(labels, [0, 2, 2, 2, 4, 4, 6], one, products)


def test_validate_reads_a_cancelled_side_as_zero():
    good = cancelling_algebra()
    assert good.validate() == exhaustive_validate(good) == []
    bad = cancelling_algebra(-2)
    violations = bad.validate()
    assert violations == exhaustive_validate(bad)
    assert "associativity: (x * y) * z != x * (y * z)" in violations
    assert "associativity: (z * x) * y != z * (x * y)" in violations


def test_constructor_normalizes_the_table():
    class Exact(Fraction):
        pass

    half = Fraction(1, 2)
    shared = {2: 1, 0: 0}
    int_key = (0, 1)
    # text is read by fileformats alone: a str value or key index is rejected
    for text in ({(1, 0): {1: "1/2"}}, {("1", 1): {0: Exact(3)}}):
        with pytest.raises(ValueError, match="must be an int"):
            GradedAlgebra(["1", "u", "v"], [0, 1, 1], 0, text)
    products = {(0, 0): {0: 1}, int_key: {1: half, 0: 0},
                (1, 0): {1: Fraction(1, 2)}, (1, 1): {0: Exact(3)},
                (2, 2): {0: Fraction(0)}, (0, 2): shared, (2, 0): shared}
    a = GradedAlgebra(["1", "u", "v"], [0, 1, 1], 0, products)
    assert a.products == {(0, 0): {0: 1}, (0, 1): {1: half},
                          (1, 0): {1: half}, (1, 1): {0: 3},
                          (0, 2): {2: 1}, (2, 0): {2: 1}}
    # integral values are ints, whatever their input type; the others are
    # Fractions
    types = {key: [type(c) for c in terms.values()] for key, terms in a.products.items()}
    assert types == {(0, 0): [int], (0, 1): [Fraction], (1, 0): [Fraction],
                     (1, 1): [int], (0, 2): [int], (2, 0): [int]}
    assert all(type(i) is int for key in a.products for i in key)
    assert a.products[(0, 1)][1] is half  # a Fraction is kept, not rebuilt
    assert next(key for key in a.products if key == (0, 1)) is int_key
    # one input entry under two keys: one normalized entry, shared by both
    # keys, and never the caller's dict
    assert a.products[(0, 2)] is a.products[(2, 0)]
    assert a.products[(0, 2)] is not shared
    # the table holds fresh dicts: the caller's can change freely
    snapshot = {key: dict(terms) for key, terms in a.products.items()}
    products[(0, 0)][0] = 5
    products[(0, 1)][2] = 1
    products[(2, 1)] = {0: 1}
    del products[(1, 0)]
    shared[0] = 4
    shared[2] = 7
    assert a.products == snapshot


def assert_exact_values(a):
    """Every value of the table is an int where integral, else a Fraction."""
    for terms in a.products.values():
        for c in terms.values():
            assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), c


def rescaled(a):
    """a in the basis (i + 1) e_i, the unit kept, whose table mixes
    integral and non-integral values."""
    scale = [1 if i == a.unit else i + 1 for i in range(a.dim)]
    return GradedAlgebra(a.labels, a.degrees, a.unit, {
        (i, j): {k: Fraction(c * scale[i] * scale[j], scale[k]) for k, c in terms.items()}
        for (i, j), terms in a.products.items()})


@given(crowded(), presentations().filter(
    lambda p: prod(g.truncation for g in p.generators) <= 16), st.data())
@settings(max_examples=40, deadline=None)
def test_a_table_given_as_fractions_ints_or_strs_is_one_algebra(p, q, data):
    # a basis change or a rescaling mixes integral and non-integral values
    for source in (basis_changed(build_monomial_algebra(p), data),
                   rescaled(build_monomial_algebra(q))):
        def given_as(convert):
            return GradedAlgebra(source.labels, source.degrees, source.unit,
                                 {key: {k: convert(Fraction(c)) for k, c in terms.items()}
                                  for key, terms in source.products.items()})

        # text is read by fileformats alone: a table given as strs is rejected
        with pytest.raises(ValueError, match="must be an int or a Fraction"):
            given_as(str)
        first, *others = [given_as(convert) for convert in (
            lambda c: c, lambda c: c.numerator if c.denominator == 1 else c)]
        for a in (first, *others):
            assert a == source
            assert_exact_values(a)
        for a in others:
            assert a.validate() == first.validate() == []
            assert a.generator_indices == first.generator_indices
            assert a.expansions == first.expansions
            for d in range(-a.top_degree, a.top_degree + 1):
                assert derivation_space(a, d) == derivation_space(first, d)
        for terms, rest in first.expansions.values():
            for c in (*terms.values(), *rest.values()):
                assert type(c) is (int if c.denominator == 1 else Fraction), c


def test_indices_and_degrees_must_be_ints_or_digit_strings():
    for value in (2.7, 2.0, Fraction(2), True, "x"):
        with pytest.raises(ValueError, match="^degree must be an int"):
            GradedBasis(["1", "x"], [0, value], 0)
    for value in (0.0, 0.9, True, False, None):
        with pytest.raises(ValueError, match="^unit must be an int"):
            GradedBasis(["1"], [0], value)
    for key in ((0.9, 1), (0, True), (1.0, 1)):
        with pytest.raises(ValueError, match="^table key must be an int"):
            GradedAlgebra(["1", "x"], [0, 2], 0, {key: {1: 1}})
    for k in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="^term index must be an int"):
            GradedAlgebra(["1", "x"], [0, 2], 0, {(0, 1): {k: 1}})
    for k in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="^Element key must be an int"):
            Element({k: 1})
    # digit strings are text, which fileformats alone reads
    with pytest.raises(ValueError, match="^degree must be an int"):
        GradedBasis(["1", "x"], ["0", " 2"], "0")
    with pytest.raises(ValueError, match="^unit must be an int"):
        GradedBasis(["1", "x"], [0, 2], "0")
    with pytest.raises(ValueError, match="^table key must be an int"):
        GradedAlgebra(["1", "x"], [0, 2], 0, {("0", "1"): {1: 1}})
    with pytest.raises(ValueError, match="^term index must be an int"):
        GradedAlgebra(["1", "x"], [0, 2], 0, {(0, 1): {"1": 1}})
    with pytest.raises(ValueError, match="^Element key must be an int"):
        Element({"1": 2})


def test_a_table_key_of_no_two_ints_is_rejected_in_either_order():
    # (0.0, 1) equals (0, 1), and is rejected whether or not that key came first
    for pairs in ([((0, 1), {1: 1}), ((0.0, 1), {1: 1})],
                  [((0.0, 1), {1: 1}), ((0, 1), {1: 1})]):
        with pytest.raises(ValueError, match=r"^table key must be an int, not 0\.0$"):
            GradedAlgebra(["1", "x"], [0, 2], 0, pairs)
    # a tuple subclass of int subclasses names the plain pair of ints
    key = type("Key", (tuple,), {})((IntEnum("I", [("zero", 0)]).zero, 1))
    a = GradedAlgebra(["1", "x"], [0, 2], 0, [((0, 1), {1: 1}), (key, {1: 2})])
    assert a.products == {(0, 1): {1: 2}}
    assert [type(i) for k in a.products for i in (k, *k)] == [tuple, int, int]


@pytest.mark.parametrize("call, message", [
    (lambda: GradedAlgebra(["1"], [0], 0, iter([([0, 0], {0: 1})])),
     r"^table key must be a pair \(i, j\) of ints, not \[0, 0\]$"),
    (lambda: GradedAlgebra(["1"], [0], 0, {(0,): {0: 1}}),
     r"^table key must be a pair \(i, j\) of ints, not \(0,\)$"),
    (lambda: GradedAlgebra(["1"], [0], 0, {(0, 0, 0): {0: 1}}),
     r"^table key must be a pair \(i, j\) of ints, not \(0, 0, 0\)$"),
    (lambda: GradedAlgebra(["1"], [0], 0, iter([(([0], 0), {0: 1})])),
     r"^table key must be an int, not \[0\]$"),
    (lambda: GradedAlgebra(["1"], [0], 0, {(0, 0): [1]}),
     r"^table entry of \(0, 0\) must be a mapping \{k: coefficient\}, not \[1\]$"),
    (lambda: GradedLinearMap(0, {0: 5}), r"^block at degree 0 must be a list of rows, not 5$"),
    (lambda: GradedLinearMap(0, {2: [1]}), r"^block at degree 2 must be a list of rows"),
    (lambda: GradedLinearMap.from_images(projective_space(2), 0, {0: {0: 1}}),
     r"^image of 0 must be an Element, not \{0: 1\}$"),
    (lambda: GradedLinearMap(0, [1]), r"^blocks must be a mapping \{degree: block\}, not \[1\]$"),
    (lambda: GradedLinearMap.from_images(projective_space(2), 0, [1]),
     r"^images must be a mapping \{index: Element\}, not \[1\]$"),
    (lambda: GradedAlgebra(["1"], [0], 0, 5),
     r"^products must be a mapping or an iterable of \(\(i, j\), terms\) pairs, not 5$"),
    (lambda: GradedAlgebra(["1"], [0], 0, [1]),
     r"^a table item must be a pair \(\(i, j\), terms\), not 1$"),
    (lambda: GradedAlgebra(["1"], [0], 0, [((0, 0),)]),
     r"^a table item must be a pair \(\(i, j\), terms\), not \(\(0, 0\),\)$"),
    (lambda: GradedAlgebra(["1"], [0], 0, [((0, 0), {0: 1}, 1)]),
     r"^a table item must be a pair \(\(i, j\), terms\), not \(\(0, 0\), \{0: 1\}, 1\)$"),
    (lambda: Element([1]), r"^a mapping \{Element key: coefficient\} is needed, not \[1\]$"),
    (lambda: Element(5), r"^a mapping \{Element key: coefficient\} is needed, not 5$"),
    (lambda: LambdaFamily(1, [1]),
     r"^components must be a mapping \{subset: GradedLinearMap\}, not \[1\]$"),
    (lambda: GradedBasis(5, [0], 0), r"^labels must be an iterable, not 5$"),
    (lambda: GradedBasis(["1"], 5, 0), r"^degrees must be an iterable of ints, not 5$"),
], ids=["list key", "short key", "long key", "unhashable key item", "list entry",
        "int block", "list of ints block", "dict image", "list of blocks", "list of images",
        "int products", "int item", "short item", "long item", "list Element",
        "int Element", "list of components", "int labels", "int degrees"])
def test_arguments_of_the_wrong_shape_raise_value_error_naming_them(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_builder_signs_only_with_odd_generators(monkeypatch):
    calls = []
    real = algebra._sort_sign
    monkeypatch.setattr(algebra, "_sort_sign",
                        lambda *args: calls.append(args) or real(*args))
    even = Presentation("CP2xCP3", (Generator("x", 2, 3), Generator("y", 2, 4)))
    mixed = Presentation("T2xCP2", (Generator("i1", 1), Generator("i2", 1),
                                    Generator("x", 2, 3)))
    for p, signed in ((even, False), (mixed, True)):
        del calls[:]
        built = build_monomial_algebra(p)
        assert bool(calls) == signed, p.name
        assert_builder_matches_oracle(p)
        # every coefficient is one of two shared ints, +1 and -1
        coeffs = [c for terms in built.products.values() for c in terms.values()]
        assert {id(c) for c in coeffs} == {id(c) for c in set(coeffs)}
        assert set(coeffs) == ({1, -1} if signed else {1})


def test_building_cp399_stays_small_in_memory():
    # allocations, not time: the table is 80 200 keys over at most 800
    # shared entries
    p = Presentation("CP399", (Generator("x", 2, 400),))
    tracemalloc.start()
    try:
        built = build_monomial_algebra(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(built.products) == 80_200
    assert peak < 20 * 2**20, f"{peak / 2**20:.1f} MB traced"


def test_building_cp399_holds_one_table():
    # the pairs stream into the constructor, so the peak is the result and
    # a little more, not the builder's dict and the constructor's copy
    p = Presentation("CP399", (Generator("x", 2, 400),))
    tracemalloc.start()
    try:
        built = build_monomial_algebra(p)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(built.products) == 80_200
    assert peak <= 1.2 * retained, f"peak {peak / retained:.2f} x the result"


def test_validating_cp399_peaks_below_two_point_four_tables():
    # each row's (e_i e_j) e_k - e_i (e_j e_k) is summed into one signed
    # dict keyed (j, k, t), not a dict per side or per pair (j, k)
    p = Presentation("CP399", (Generator("x", 2, 400),))
    tracemalloc.start()
    try:
        built = build_monomial_algebra(p)
        retained = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        violations = built.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == []
    above = peak - retained
    assert above <= 2.4 * retained, f"validate peaks {above / retained:.2f} x the algebra"


def test_validating_fl5_peaks_below_five_and_a_half_tables():
    # Fl_5's products cancel, so a sum per side holds keys the other side
    # lacks; the signed sum of a row holds each key once.  A fresh
    # interpreter: the table is small enough that the tuples earlier tests
    # leave on the free lists would shift its traced size
    script = (
        "import gc, importlib.util, json, sys, tracemalloc\n"
        "spec = importlib.util.spec_from_file_location('flag_manifold', sys.argv[1])\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "tracemalloc.start()\n"
        "built = module.flag_manifold(5)\n"
        "gc.collect()  # empties the free lists, so the baseline is the algebra\n"
        "retained = tracemalloc.get_traced_memory()[0]\n"
        "tracemalloc.reset_peak()\n"
        "violations = built.validate()\n"
        "print(json.dumps([violations, retained, tracemalloc.get_traced_memory()[1]]))\n")
    proc = subprocess.run([sys.executable, "-c", script,
                           os.path.join(ROOT, "scripts", "flag_manifold.py")],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    violations, retained, peak = json.loads(proc.stdout)
    assert violations == []
    above = peak - retained
    assert above <= 5.5 * retained, f"validate peaks {above / retained:.2f} x the algebra"


def test_a_table_given_as_pairs_is_read_as_their_dict():
    half = Fraction(1, 2)
    shared = {1: 1}
    pairs = [((0, 0), {0: 1}), ((0, 1), shared), ((1, 1), {2: 1}),
             ((0, 2), {2: half}), ((1, 0), {}), ((2, 0), {2: 0}),
             ((1, 1), {2: 2}),    # replaces the earlier (1, 1), in its place
             ((0, 2), {}),        # removes (0, 2)
             ((1, 0), shared),    # fills the place of the earlier empty (1, 0)
             ((2, 2), {0: Fraction(0)})]
    streamed = GradedAlgebra(["1", "x", "y"], [0, 2, 4], 0, iter(pairs))
    mapped = GradedAlgebra(["1", "x", "y"], [0, 2, 4], 0, dict(pairs))
    assert streamed == mapped
    assert all(type(i) is int for key in streamed.products for i in key)
    assert list(streamed.products.items()) == list(mapped.products.items()) == [
        ((0, 0), {0: 1}), ((0, 1), {1: 1}), ((1, 1), {2: 2}), ((1, 0), {1: 1})]
    # one input entry under two keys: one fresh entry, shared by both
    assert streamed.products[(0, 1)] is streamed.products[(1, 0)]
    assert streamed.products[(0, 1)] is not shared
    # a generator is read once, as it goes
    once = GradedAlgebra(["1"], [0], 0, (((0, 0), {0: c}) for c in (1, 2, 3)))
    assert once.products == {(0, 0): {0: 3}}


def test_a_key_emptied_and_set_again_in_a_stream_comes_last():
    # the pairs are read in one pass: the empty entry removes (0, 1), and
    # the pair after it sets (0, 1) anew, after (1, 0); dict(pairs) would
    # keep (0, 1) in its first place
    for empty in ({}, {1: 0}, {1: Fraction(0)}):
        pairs = [((0, 0), {0: 1}), ((0, 1), {1: 1}), ((1, 0), {1: 1}),
                 ((0, 1), empty), ((0, 1), {1: 2})]
        a = GradedAlgebra(["1", "x"], [0, 2], 0, iter(pairs))
        assert list(a.products.items()) == [
            ((0, 0), {0: 1}), ((1, 0), {1: 1}), ((0, 1), {1: 2})]
        assert a == GradedAlgebra(["1", "x"], [0, 2], 0, dict(pairs))
        assert list(dict(pairs)) == [(0, 0), (0, 1), (1, 0)]


@pytest.mark.parametrize("pair", [(("0", 0), {0: 1}), ((0, 0), {"0": 1}),
                                  ((0, 0), {0: "1"}), ((0.0, 0), {0: 1})])
def test_a_table_given_as_pairs_rejects_what_the_mapping_rejects(pair):
    pairs = [((1, 0), {0: 1}), pair]
    with pytest.raises(ValueError) as streamed:
        GradedAlgebra(["1"], [0], 0, iter(pairs))
    with pytest.raises(ValueError) as mapped:
        GradedAlgebra(["1"], [0], 0, dict(pairs))
    assert str(streamed.value) == str(mapped.value)


def test_tensor_over_the_table_budget_raises_before_allocating():
    # CP49 has 1 275 entries, so CP49 x CP49 asks for 1 625 625; a capped
    # child, so a broken budget runs out of its own memory
    script = (
        "import json, time\n"
        "from negder import (Generator, KunnethModel, Presentation,\n"
        "                    build_monomial_algebra, tensor)\n"
        "def raised(call):\n"
        "    start = time.perf_counter()\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        return [str(exc), time.perf_counter() - start]\n"
        "    return [None, time.perf_counter() - start]\n"
        "cp = lambda n: build_monomial_algebra(Presentation('CP', (Generator('x', 2, n + 1),)))\n"
        "cp49, cp399 = cp(49), cp(399)\n"
        "print(json.dumps([raised(lambda: tensor(cp49, cp49)),\n"
        "                  raised(lambda: KunnethModel(cp399, 10))]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=src_env(), preexec_fn=cap_memory, timeout=60)
    assert proc.returncode == 0, proc.stderr
    (square, seconds), (model, _) = json.loads(proc.stdout)
    limit = algebra.MAX_TABLE_ENTRIES
    assert square == f"the tensor product needs a table of {1275 ** 2} entries, " \
                     f"over the limit of {limit}"
    assert model == f"the tensor product needs a table of {3 ** 10 * 80_200} entries, " \
                    f"over the limit of {limit}"
    assert seconds < 1.0


@given(presentations())
@settings(max_examples=30, deadline=None)
def test_random_presentations_validate(p):
    alg = build_monomial_algebra(p)
    assert alg.validate() == []
    assert alg.dim == len({tuple(e) for e in alg.monomial_exponents})


@given(presentations(), presentations())
@settings(max_examples=15, deadline=None)
def test_tensor_of_random_presentations_validates(p, q):
    a, b = build_monomial_algebra(p), build_monomial_algebra(q)
    if a.dim * b.dim > 40:  # keep the example quick
        return
    assert tensor(a, b).validate() == []


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.booleans()),
                max_size=12))
def test_sort_sign_equals_the_quadratic_oracle(letters):
    first, second, odd = zip(*letters) if letters else ((), (), ())
    assert algebra._sort_sign(first, second, odd) == quadratic_sort_sign(
        first, second, odd)


def assert_builder_matches_oracle(p):
    built, oracle = build_monomial_algebra(p), all_pairs_monomial_algebra(p)
    assert built == oracle
    assert built.monomial_exponents == oracle.monomial_exponents
    # one shared entry per (target, sign)
    assert len({id(terms) for terms in built.products.values()}) <= 2 * built.dim


@pytest.mark.parametrize("p", [
    Presentation("CP49", (Generator("x", 2, 50),)),
    Presentation("T4", tuple(Generator(f"i{j}", 1, 2) for j in range(1, 5))),
    Presentation("T3xS3", tuple(Generator(f"i{j}", 1, 2) for j in range(1, 4))
                 + (Generator("y", 3, 2),)),
    Presentation("T2xCP3", (Generator("i1", 1), Generator("i2", 1),
                            Generator("x", 2, 4))),
], ids=lambda p: p.name)
def test_builder_equals_all_pairs_oracle(p):
    assert_builder_matches_oracle(p)


@given(presentations())
@settings(max_examples=60, deadline=None)
def test_builder_equals_all_pairs_oracle_on_random_presentations(p):
    assert_builder_matches_oracle(p)


# --- generators read off the table ---

def single_generator_monomials(a):
    """The unit, then the basis indices of exponent vectors of total 1."""
    return (a.unit,) + tuple(i for i, e in enumerate(a.monomial_exponents)
                             if sum(e) == 1)


def test_generator_indices_are_the_generators_on_the_corpus():
    built = 0
    for name in corpus.names():
        a = corpus.load(name)
        if hasattr(a, "monomial_exponents"):
            built += 1
            assert a.generator_indices == single_generator_monomials(a), name
        else:  # the torus tables: generated by the degree-1 classes
            assert a.generator_indices == (a.unit,) + tuple(a.graded_piece(1)), name
    assert built == 12


@given(presentations())
@settings(max_examples=60, deadline=None)
def test_generator_indices_are_the_generators_on_random_presentations(p):
    a = build_monomial_algebra(p)
    assert a.generator_indices == single_generator_monomials(a)


def test_generator_search_equals_the_echelon_oracle_on_the_corpus():
    for name in corpus.names():
        a = corpus.load(name)
        assert a._generators() == echelon_generators(a), name


@given(presentations(), presentations(), crowded(), st.data())
@settings(max_examples=60, deadline=None)
def test_generator_search_equals_the_echelon_oracle_on_random_tables(p, q, r, data):
    a, b = build_monomial_algebra(p), build_monomial_algebra(q)
    tables = [a, basis_changed(build_monomial_algebra(r), data)]
    if a.dim * b.dim <= 64:
        tables.append(tensor(a, b))
    for t in tables:
        assert t._generators() == echelon_generators(t)


def test_generator_search_reduces_longer_entries_by_the_one_term_pivots(monkeypatch):
    # x x = u is one term, so u is a pivot with no elimination; x y = u + v
    # reaches echelon as v alone, and makes v a pivot.  With y y = v as
    # well, x y reduces to nothing.
    handed = []
    real = algebra.echelon

    def recording(rows):
        handed[:] = rows
        return real(handed)

    monkeypatch.setattr(algebra, "echelon", recording)
    one, x, y, u, v = range(5)
    labels, degrees = ["1", "x", "y", "u", "v"], [0, 2, 2, 4, 4]
    both = {u: 1, v: 1}
    for products, rows in (({(x, x): {u: 1}, (x, y): both, (y, x): both}, [{v: 1}]),
                           ({(x, x): {u: 1}, (y, y): {v: 1}, (x, y): both, (y, x): both},
                            [{}])):
        a = GradedAlgebra(labels, degrees, one, with_unit_rows(5, products))
        assert a._generators() == (one, x, y)
        assert handed == rows
        assert echelon_generators(a) == (one, x, y)
        assert a.validate() == exhaustive_validate(a) == []
    # with no one-term entry, x y alone makes u the pivot, and v a generator
    a = GradedAlgebra(labels, degrees, one, with_unit_rows(5, {(x, y): both, (y, x): both}))
    assert a._generators() == echelon_generators(a) == (one, x, y, v)


def assert_expansions_rebuild_the_basis(a):
    """e_x = sum c P[g, y] - sum c e_h for each expansion, by multiply."""
    gens = set(a.generator_indices)
    assert sorted(a.expansions) == [i for i in range(a.dim) if i not in gens]
    for x, (terms, rest) in a.expansions.items():
        assert terms and all(g in gens and g != a.unit and a.degrees[y] > 0
                             for g, y in terms)
        assert all(h in gens and a.degrees[h] == a.degrees[x] for h in rest)
        total = Element()
        for (g, y), c in terms.items():
            total = total + c * a.multiply(a.basis_element(g), a.basis_element(y))
        for h, c in rest.items():
            total = total - c * a.basis_element(h)
        assert total == a.basis_element(x), a.labels[x]


def test_expansions_rebuild_the_basis_on_the_corpus():
    for name in corpus.names():
        assert_expansions_rebuild_the_basis(corpus.load(name))


@given(crowded(), st.data())
@settings(max_examples=40, deadline=None)
def test_expansions_rebuild_the_basis_on_basis_changed_tables(p, data):
    assert_expansions_rebuild_the_basis(basis_changed(build_monomial_algebra(p), data))


def test_expansions_reject_a_table_the_generators_do_not_span():
    # a a = b and b b = d, but a b = 0: d is a product, yet no product of
    # the generators a and c reaches it, and (a a) b != a (a b)
    a = GradedAlgebra(["1", "a", "b", "c", "d"], [0, 2, 4, 6, 8], 0, {
        **{(0, i): {i: 1} for i in range(5)}, **{(i, 0): {i: 1} for i in range(1, 5)},
        (1, 1): {2: 1}, (2, 2): {4: 1}})
    assert a.generator_indices == (0, 1, 3)
    assert any(v.startswith("associativity") for v in a.validate())
    with pytest.raises(ValueError, match="do not span"):
        a.expansions
    with pytest.raises(ValueError, match="validate"):
        derivation_space(a, -2)

import subprocess
import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (basis_changed, bracket, crowded, element_residual, flag_manifold,
                      generator_pair_space, identity_map, levels_with_unknowns,
                      per_degree_class_h, point, presentations, projective_space,
                      rref_kernel, scaled, sphere, src_env, torus)
from negder import (Element, Generator, GradedAlgebra, GradedLinearMap,
                    Presentation, build_monomial_algebra, check_class_h, corpus,
                    derivation_space, derivations, is_derivation, leibniz_system,
                    monomial_basis, parse_structure_constants, prove_rigidity, tensor)
from negder.derivations import leibniz_rows
from negder.linalg import _fold, nullspace_basis, rank_fraction_free


def lam(a=3, b=5):
    return build_monomial_algebra(Presentation(
        "ab", (Generator("a", a), Generator("b", b))))


# --- GradedLinearMap basics ---

def test_map_normalizes_zero_blocks():
    m = GradedLinearMap(-1, {2: [[0, 0]], 3: [[Fraction(0)]]})
    assert m.is_zero()
    assert m == GradedLinearMap(-1)
    assert m != GradedLinearMap(-2)


def test_apply_and_from_images():
    s3 = sphere(3)
    theta = GradedLinearMap.from_images(s3, -3, {1: s3.basis_element(0)})
    assert theta.blocks == {3: [[1]]}
    assert theta.apply(s3, s3.basis_element(1)) == Element({0: 1})
    assert not theta.apply(s3, s3.basis_element(0))
    assert theta.apply(s3, 5 * s3.basis_element(1)) == Element({0: 5})


def test_from_images_rejects_off_piece_images():
    s3 = sphere(3)
    with pytest.raises(ValueError, match="empty piece"):
        GradedLinearMap.from_images(s3, -3, {0: s3.basis_element(0)})
    cp2 = projective_space(2)
    with pytest.raises(ValueError, match="off the shifted piece"):
        GradedLinearMap.from_images(cp2, -2, {1: cp2.basis_element(1)})
    # -1 would wrap to the last index, whose degree is the target's
    for key in (-1, cp2.dim):
        with pytest.raises(ValueError, match="off the shifted piece"):
            GradedLinearMap.from_images(cp2, 0, {cp2.dim - 1: Element({key: 1})})


def test_apply_rejects_misshapen_blocks():
    cp2, t2 = projective_space(2), torus(2)
    # cp2 has nothing in degrees 3 and 5, so no basis image reads those
    # blocks: is_derivation must reject them before it reads any image
    cases = [(cp2, GradedLinearMap(-2, {2: [[1, 1]]})),
             (t2, GradedLinearMap(0, {1: [[1, 2], [3]]})),
             (t2, GradedLinearMap(0, {1: [[1, 2], [3, 4, 5]]})),
             (cp2, GradedLinearMap(-2, {3: [[1]]})),
             (cp2, GradedLinearMap(-2, {5: [[1, 0]], 2: [[1]]}))]
    for alg, bad in cases:
        n = next(iter(bad.blocks))
        for i in alg.graded_piece(n):
            with pytest.raises(ValueError, match="does not match"):
                bad.apply(alg, alg.basis_element(i))
        with pytest.raises(ValueError, match=f"block at degree {n} does not match"):
            is_derivation(alg, bad)


def test_image_reads_one_column_and_apply_sums_them():
    t2 = torus(2)
    with pytest.raises(ValueError, match="must be an int or a Fraction, not '1/2'"):
        GradedLinearMap(0, {1: [[1, 2], [3, "1/2"]]})
    m = GradedLinearMap(0, {1: [[1, 2], [3, Fraction(1, 2)]]})
    assert [[type(x) for x in row] for row in m.blocks[1]] == [[int, int], [int, Fraction]]
    assert m.image(t2, 1) == Element({1: 1, 2: 3})
    assert m.image(t2, 2) == Element({1: 2, 2: Fraction(1, 2)})
    assert not m.image(t2, 0)
    assert m.apply(t2, t2.basis_element(1) - 2 * t2.basis_element(2)) == Element({1: -3, 2: 2})
    assert GradedLinearMap.from_images(
        t2, 0, {i: m.image(t2, i) for i in range(t2.dim)}) == m
    for name in corpus.names():
        a = corpus.load(name)
        for d in range(-1, -a.top_degree - 1, -1):
            for m in derivation_space(a, d):
                again = GradedLinearMap.from_images(
                    a, d, {i: m.image(a, i) for i in range(a.dim)})
                assert again == m == GradedLinearMap(d, m.blocks), (name, d)
                assert all(type(x) is type(_fold(x))
                           for mat in again.blocks.values() for row in mat for x in row)


@pytest.mark.parametrize("index", [7, -1])
def test_basis_index_outside_the_basis_is_an_error(index):
    s3 = sphere(3)
    theta = GradedLinearMap(-3, {3: [[1]]})
    message = f"basis index {index} is outside 0..1"
    with pytest.raises(ValueError, match=message):
        GradedLinearMap.from_images(s3, -3, {index: s3.basis_element(0)})
    with pytest.raises(ValueError, match=message):
        theta.image(s3, index)
    with pytest.raises(ValueError, match=message):
        theta.apply(s3, Element({index: 1}))


def test_shape_checks_survive_optimized_mode():
    script = (
        "from negder import Element, GradedLinearMap, Generator, Presentation, "
        "build_monomial_algebra\n"
        "s3 = build_monomial_algebra(Presentation('S3', (Generator('x', 3, 2),)))\n"
        "t2 = build_monomial_algebra(Presentation(\n"
        "    'T2', (Generator('a', 1, 2), Generator('b', 1, 2))))\n"
        "cases = [\n"
        "    lambda: GradedLinearMap.from_images(s3, -3, {0: s3.basis_element(0)}),\n"
        "    lambda: GradedLinearMap.from_images(s3, 0, {1: Element({-1: 1})}),\n"
        "    lambda: GradedLinearMap.from_images(s3, 0, {1: Element({2: 1})}),\n"
        "    lambda: GradedLinearMap(0, {1: [[1, 2], [3]]}).image(t2, 1),\n"
        "    lambda: GradedLinearMap(0, {1: [[1, 2], [3]]}).image(t2, 2)]\n"
        "for case in cases:\n"
        "    try:\n"
        "        case()\n"
        "    except ValueError:\n"
        "        print(__debug__, 'raised')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False raised\n" * 5


def test_identity_map():
    cp2 = projective_space(2)
    ident = identity_map(cp2)
    e = cp2.basis_element(1) + 3 * cp2.basis_element(2)
    assert ident.apply(cp2, e) == e


# --- solver on the worked examples ---

def test_no_negative_derivations_on_projective_plane():
    assert derivation_space(projective_space(2), -2) == []


def test_sphere_top_derivation():
    space = derivation_space(sphere(3), -3)
    assert len(space) == 1
    assert space[0].blocks == {3: [[1]]}


def test_degrees_below_minus_top_are_empty():
    for alg in (projective_space(2), sphere(3), torus(2)):
        for d in range(alg.top_degree + 1, alg.top_degree + 4):
            assert derivation_space(alg, -d) == []


def test_solver_outputs_are_derivations():
    for alg in (projective_space(3), sphere(5), torus(2), torus(3), lam()):
        for d in range(0, alg.top_degree + 1):
            for theta in derivation_space(alg, -d):
                assert is_derivation(alg, theta) == []


def dense_derivation_space(alg, d):
    """Oracle for derivation_space: the dense Leibniz system, its kernel
    read off dense rref, and the same reshape into per-degree blocks."""
    rows, unknowns = leibniz_system(alg, d)
    maps = []
    for v in rref_kernel(rows, len(unknowns)):
        images = {}
        for (i, t), c in zip(unknowns, v):
            if c:
                images.setdefault(i, {})[t] = c
        maps.append(GradedLinearMap.from_images(
            alg, d, {i: Element(img) for i, img in images.items()}))
    return maps


def assert_matches_dense_oracle(alg):
    for d in range(-alg.top_degree, alg.top_degree + 1):
        assert derivation_space(alg, d) == dense_derivation_space(alg, d), d


@pytest.mark.parametrize("name", corpus.names())
def test_derivation_space_matches_dense_oracle_on_corpus(name):
    assert_matches_dense_oracle(corpus.load(name))


def test_derivation_space_matches_dense_oracle_on_tensor_products():
    assert_matches_dense_oracle(tensor(torus(3), sphere(3)))
    assert_matches_dense_oracle(tensor(projective_space(2), sphere(4)))


generators = st.lists(
    st.integers(1, 6).flatmap(lambda deg: st.tuples(
        st.just(deg), st.just(2) if deg % 2 else st.integers(2, 4))),
    min_size=1, max_size=3)


@given(generators)
@settings(max_examples=50, deadline=None)
def test_derivation_space_matches_dense_oracle_on_random_presentations(gens):
    alg = build_monomial_algebra(Presentation("random", tuple(
        Generator(symbol, deg, trunc) for symbol, (deg, trunc) in zip("abc", gens))))
    assume(alg.dim <= 12)
    assert_matches_dense_oracle(alg)


small = presentations().filter(lambda p: prod(g.truncation for g in p.generators) <= 4)


@given(small, small)
@settings(max_examples=40, deadline=None)
def test_derivation_space_matches_dense_oracle_on_random_tensor_products(p, q):
    assert_matches_dense_oracle(
        tensor(build_monomial_algebra(p), build_monomial_algebra(q)))


@given(crowded(), st.data())
@settings(max_examples=60, deadline=None)
def test_derivation_space_matches_dense_oracle_on_basis_changed_tables(p, data):
    a = build_monomial_algebra(p)
    b = basis_changed(a, data)
    assert b.validate() == []
    assert len(b.generator_indices) == len(a.generator_indices)
    assert_matches_dense_oracle(b)


def test_derivation_space_matches_dense_oracle_off_the_unit_line():
    # Q x Q: degree 0 is two-dimensional, so every index is a left factor
    qxq = parse_structure_constants(
        "basis:\n1 0\ne 0\nunit: 1\nproducts:\n1 1 = 1*1\n1 e = 1*e\n"
        "e e = 1*e\n")
    for alg in (qxq, tensor(qxq, sphere(3))):
        assert alg.generator_indices == tuple(range(alg.dim))
        assert_matches_dense_oracle(alg)
    # Q[y]/(y^2) with |y| = -2 has no positive degree to take generators from;
    # at degree 2 only the pair (y, y) forces theta(y) = 0
    neg = GradedAlgebra(["1", "y"], [0, -2], 0,
                        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})
    assert neg.validate() == []
    assert neg.generator_indices == (0, 1)
    assert derivation_space(neg, 2) == dense_derivation_space(neg, 2) == []


def spy_solves(monkeypatch):
    """(columns, rows read, rows left unread) of every nullspace_basis
    call that derivation_space makes; the unread rows are counted after
    the call returns."""
    solved = []
    real = derivations.nullspace_basis

    def spy(rows, ncols):
        rows = iter(rows)
        read = []
        kernel = real((read.append(row) or row for row in rows), ncols=ncols)
        solved.append((ncols, len(read), sum(1 for _ in rows)))
        return kernel

    monkeypatch.setattr(derivations, "nullspace_basis", spy)
    return solved


def test_derivation_space_assembles_generator_pairs_only(monkeypatch):
    # the generator-pair system of the oracle, against the all-pairs one
    t4 = torus(4)
    assert len(leibniz_rows(t4, -1, t4.generator_indices)[0]) == 336
    assert len(leibniz_rows(t4, -1, range(t4.dim))[0]) == 792
    solved = spy_solves(monkeypatch)
    # the unknowns are theta(i1), ..., theta(i4) in A_0, and every
    # Leibniz row on the pairs (g, x) over them is zero
    assert len(derivation_space(t4, -1)) == 4
    assert solved == [(4, 0, 0)]
    assert len(derivation_space(torus(9), -1)) == 9
    assert solved[1:] == [(9, 0, 0)]


def test_no_system_is_built_where_every_generator_target_is_empty(monkeypatch):
    # CP2 x CP2 x CP1: generators x, y, z of degree 2, top degree 10.  Only
    # at degree -2 does a generator have a nonempty target piece, A_0.
    cp2xcp2xcp1 = build_monomial_algebra(Presentation("CP2xCP2xCP1", (
        Generator("x", 2, 3), Generator("y", 2, 3), Generator("z", 2, 2))))
    solved = spy_solves(monkeypatch)
    verdict = check_class_h(cp2xcp2xcp1)
    assert verdict.in_class and verdict.complete
    assert verdict.dimensions == {-k: 0 for k in range(1, 11)}
    # One solve, over theta(x), theta(y), theta(z).  The rows come pair by
    # pair, and the solver reads exactly the shortest prefix of the stream
    # whose rank, found apart from the solver, is 3: z^2 = 0 and x^3 =
    # y^3 = 0 give it, and the pairs after it are never built.
    theta, ncols = derivations._unknowns(cp2xcp2xcp1, -2)
    stream = list(derivations._constraints(cp2xcp2xcp1, -2, theta))
    dense = [[row.get(c, 0) for c in range(ncols)] for row in stream]
    [(cols, read, unread)] = solved
    assert (cols, ncols) == (3, 3)
    assert (read, len(stream)) == (5, 21)
    assert read + unread == len(stream)
    assert rank_fraction_free(dense[:read]) == 3 > rank_fraction_free(dense[:read - 1])
    assert unread > 0
    assert_matches_dense_oracle(cp2xcp2xcp1)


def test_class_h_on_many_generators_sums_about_one_pair_per_table_entry(monkeypatch):
    # U_1000: a unit and x_1..x_1000 in degree 2, unit products only.  At
    # degree -2 each theta(x_k) is a multiple of 1, and the pairs (x_1, x)
    # already give all 1 000 ranks, so the solve stops there instead of
    # summing all 10^6 pairs (g, x)
    n = 1000
    pairs = [((0, 0), {0: 1})]
    for k in range(1, n + 1):
        pairs += [((0, k), {k: 1}), ((k, 0), {k: 1})]
    wide = GradedAlgebra(["1", *(f"x{k}" for k in range(1, n + 1))], [0] + [2] * n, 0, pairs)
    calls = []
    real = derivations._product_rule

    def spy(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(derivations, "_product_rule", spy)
    verdict = check_class_h(wide)
    assert verdict.in_class and verdict.complete
    assert len(calls) <= 2 * len(wide.products) == 2 * (2 * n + 1)


def test_derivation_space_matches_the_generator_pair_oracle():
    # sizes where the dense all-pairs oracle is too slow
    for alg in (torus(6), tensor(tensor(torus(3), sphere(3)), projective_space(2))):
        for d in range(-alg.top_degree, alg.top_degree + 1):
            assert derivation_space(alg, d) == generator_pair_space(alg, d), (alg.name, d)


@given(st.data())
@settings(max_examples=3, deadline=None)
def test_derivation_space_matches_the_generator_pair_oracle_on_basis_changed_fl4(data):
    # Fl4 in a drawn basis: entries of several terms, and generators that
    # are no longer basis monomials.  Below -2 every space is zero, with
    # no system to solve, and the spaces at 0 and 2 are the largest
    fl4 = basis_changed(flag_manifold(4), data)
    assert fl4.validate() == [] and len(fl4.generator_indices) == 4
    for d in range(-2, 3):
        assert derivation_space(fl4, d) == generator_pair_space(fl4, d), d


def held_values(a):
    """Every value that a's table holds, and that multiply, apply,
    derivation_space, from_images, scaled and nullspace_basis return on a,
    in degrees -top..0.  The factors of the products are chosen so that
    Fraction arithmetic gives integral Fractions."""
    yield from (c for terms in a.products.values() for c in terms.values())
    half = Element({i: Fraction(1, 2) for i in range(a.dim)})
    two = Element({i: 2 for i in range(a.dim)})
    yield from a.multiply(half, two).coeffs.values()
    yield from (Fraction(2, 3) * a.multiply(two, half)).coeffs.values()
    for d in range(-a.top_degree, 1):
        rows, unknowns = leibniz_rows(a, d, a.generator_indices)
        yield from (x for v in nullspace_basis(rows, ncols=len(unknowns)) for x in v)
        for m in derivation_space(a, d):
            images = {i: m.image(a, i) for i in range(a.dim)}
            for n in (m, GradedLinearMap.from_images(a, d, images), scaled(m, Fraction(3, 2)),
                      GradedLinearMap(d, m.blocks)):
                yield from (x for mat in n.blocks.values() for row in mat for x in row)
            yield from m.apply(a, half).coeffs.values()
            yield from (x for img in images.values() for x in img.coeffs.values())


def assert_held_as_folded(a):
    for x in held_values(a):
        y = _fold(x)
        assert type(x) is type(y) and x == y, (a.name, x)


def test_every_held_value_is_folded_on_the_corpus():
    for name in corpus.names():
        assert_held_as_folded(corpus.load(name))


@given(presentations())
@settings(max_examples=30, deadline=None)
def test_every_held_value_is_folded_on_random_presentations(p):
    assert_held_as_folded(build_monomial_algebra(p))


@given(crowded(), st.data())
@settings(max_examples=30, deadline=None)
def test_every_held_value_is_folded_on_basis_changed_tables(p, data):
    assert_held_as_folded(basis_changed(build_monomial_algebra(p), data))


def test_six_torus_has_six_derivations_of_degree_minus_one():
    t6 = torus(6)
    rows, unknowns = leibniz_rows(t6, -1, t6.generator_indices)
    kernel = nullspace_basis(rows, ncols=len(unknowns))
    assert len(kernel) == 6
    space = derivation_space(t6, -1)
    assert len(space) == 6
    assert all(is_derivation(t6, theta) == [] for theta in space)


@given(presentations())
@settings(max_examples=40, deadline=None)
def test_generator_pair_kernel_equals_dense_rref_on_random_presentations(p):
    a = build_monomial_algebra(p)
    for d in range(-a.top_degree, a.top_degree + 1):
        rows, unknowns = leibniz_rows(a, d, a.generator_indices)
        dense = [[row.get(c, 0) for c in range(len(unknowns))] for row in rows]
        kernel = nullspace_basis(rows, ncols=len(unknowns))
        assert kernel == rref_kernel(dense, len(unknowns)), d


def test_seven_torus_has_seven_derivations_of_degree_minus_one():
    t7 = torus(7)
    space = derivation_space(t7, -1)
    assert len(space) == 7
    assert is_derivation(t7, space[0]) == []


# --- closed form for monomial presentations ---

def closed_form_dimension(p, basis, d):
    """Oracle for len(derivation_space) on a monomial presentation p with
    basis monomial_basis(p): the only relations are g^t = 0 for even g,
    and theta(g^t) = t g^(t-1) theta(g), so
    Der_d = sum over odd g of A_(|g|+d) plus, over even g, the span of the
    monomials of degree |g|+d with a positive exponent of g."""
    return sum(1 for idx, g in enumerate(p.generators)
               for n, e in zip(basis.degrees, basis.monomial_exponents)
               if n == g.degree + d and (g.degree % 2 or e[idx]))


@given(presentations())
@settings(max_examples=40, deadline=None)
def test_derivation_space_has_the_closed_form_dimension(p):
    a, basis = build_monomial_algebra(p), monomial_basis(p)
    for d in range(-a.top_degree - 1, a.top_degree + 2):
        assert len(derivation_space(a, d)) == closed_form_dimension(p, basis, d), d
    # an odd generator g gives theta(g) = 1 in degree -|g|; with none,
    # every target degree |g| + d < |g| of an even g misses g's multiples
    verdict = check_class_h(a)
    assert verdict.complete
    assert verdict.in_class == all(g.degree % 2 == 0 for g in p.generators)


@pytest.mark.parametrize("p", [
    Presentation("T10", tuple(Generator(f"i{j}", 1, 2) for j in range(1, 11))),
    Presentation("CP399", (Generator("x", 2, 400),)),
], ids=lambda p: p.name)
def test_closed_form_dimension_where_the_dense_oracle_cannot_reach(p):
    a, basis = build_monomial_algebra(p), monomial_basis(p)
    for d in (-1, -2):
        assert len(derivation_space(a, d)) == closed_form_dimension(p, basis, d), d
    assert closed_form_dimension(p, basis, -1) == (10 if p.name == "T10" else 0)
    assert closed_form_dimension(p, basis, 0) == (100 if p.name == "T10" else 1)


def test_dense_oracle_keeps_every_ordered_pair():
    rows, unknowns = leibniz_system(torus(5), -1)
    assert (len(rows), len(unknowns)) == (5005, 210)
    zero = sum(not any(row) for row in rows)
    assert 0.31 <= zero / len(rows) <= 0.33


def test_five_torus_fails_class_h_at_degree_minus_one():
    t5 = torus(5)
    verdict = check_class_h(t5)
    assert verdict.dimensions == {-1: 5}
    d, cert = verdict.certificate
    assert d == -1
    assert is_derivation(t5, cert) == []


# On T^2, with basis 1, i2, i1, i1*i2: theta(i2) = 1 and theta is 0 on i1
# and i1*i2, but the law on (i2, i1) needs theta(i2 i1) = i1
NOT_A_DERIVATION = "GradedLinearMap(-1, {1: [[1, 0]]})"


def test_a_certificate_that_fails_the_law_raises(monkeypatch):
    t2 = torus(2)
    bad = GradedLinearMap(-1, {1: [[1, 0]]})
    assert is_derivation(t2, bad) != []
    monkeypatch.setattr(derivations, "derivation_space", lambda a, d: [bad])
    with pytest.raises(ArithmeticError, match=r"Leibniz law on \(i2, i1\)"):
        check_class_h(t2)
    with pytest.raises(ArithmeticError):
        prove_rigidity(t2, 1)


def test_certificate_check_survives_optimized_mode():
    script = (
        "from negder import GradedLinearMap, check_class_h, derivations\n"
        "from negder import Generator, Presentation, build_monomial_algebra\n"
        "t2 = build_monomial_algebra(Presentation('T2', (Generator('i1', 1, 2), "
        "Generator('i2', 1, 2))))\n"
        f"derivations.derivation_space = lambda a, d: [{NOT_A_DERIVATION}]\n"
        "try:\n"
        "    check_class_h(t2)\n"
        "except ArithmeticError:\n"
        "    print(__debug__, 'raised')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False raised\n"


def test_rank_nullity_against_fraction_free_oracle():
    for alg in (projective_space(2), sphere(3), torus(2), lam()):
        for d in range(1, alg.top_degree + 1):
            rows, unknowns = leibniz_system(alg, -d)
            space = derivation_space(alg, -d)
            assert len(space) == len(unknowns) - rank_fraction_free(rows)


def test_torus_negative_derivations_only_at_minus_one():
    t3 = torus(3)
    assert len(derivation_space(t3, -1)) == 3
    assert derivation_space(t3, -2) == []
    assert derivation_space(t3, -3) == []


def test_euler_map_is_a_degree_zero_derivation():
    t2 = torus(2)
    euler = GradedLinearMap.from_images(
        t2, 0, {i: t2.degrees[i] * t2.basis_element(i) for i in range(t2.dim)})
    assert is_derivation(t2, euler) == []


@pytest.mark.parametrize("name", corpus.names())
def test_check_class_h_agrees_with_the_corpus_metadata(name):
    entry = corpus.entry(name)
    verdict = check_class_h(corpus.load(name))
    assert verdict.in_class == entry.in_class
    assert (verdict.certificate[0] if verdict.certificate else None) == entry.first_failure
    assert verdict.connectivity_ok == entry.simply_connected


# --- the Kunneth identity for derivations ---

def kunneth_dimensions(a, b):
    """Oracle for len(derivation_space(tensor(a, b), d)), d = -top..0, read
    off the factors alone: Der(A (x) B) = Der(A) (x) B + A (x) Der(B), since
    a derivation of A (x) B is fixed by its restrictions to A and B, any
    such pair extends, and A (x) B is a free A-module on a basis of B.  So
    dim Der_d = sum_n dim Der_(d-n)(A) dim B_n + dim A_n dim Der_(d-n)(B)."""
    spaces = {}

    def der(x, e):
        if (id(x), e) not in spaces:
            spaces[id(x), e] = len(derivation_space(x, e))
        return spaces[id(x), e]

    def pieces(x):
        return {n: len(x.graded_piece(n)) for n in set(x.degrees)}

    return {d: sum(der(a, d - n) * size for n, size in pieces(b).items())
            + sum(size * der(b, d - n) for n, size in pieces(a).items())
            for d in range(-a.top_degree - b.top_degree, 1)}


def assert_kunneth(a, b):
    expected = kunneth_dimensions(a, b)
    product = tensor(a, b)
    assert {d: len(derivation_space(product, d)) for d in expected} == expected


factor = presentations().filter(lambda p: prod(g.truncation for g in p.generators) <= 8)


@given(factor, factor)
@settings(max_examples=40, deadline=None)
def test_kunneth_identity_on_random_tensor_products(p, q):
    assert_kunneth(build_monomial_algebra(p), build_monomial_algebra(q))


@given(crowded(), small, st.data())
@settings(max_examples=20, deadline=None)
def test_kunneth_identity_on_basis_changed_tables(p, q, data):
    # a basis change mixes generators with products, so the factor's
    # table and the product's are no longer monomial
    a = basis_changed(build_monomial_algebra(p), data)
    b = build_monomial_algebra(q)
    assert_kunneth(a, b)
    assert_kunneth(b, a)


def test_kunneth_identity_on_corpus_products():
    cp2, s3 = corpus.load("cp2"), corpus.load("s3")
    assert_kunneth(cp2, s3)
    assert_kunneth(torus(2), cp2)


@given(factor, factor)
@settings(max_examples=40, deadline=None)
def test_a_product_has_a_negative_derivation_iff_a_factor_has_one(p, q):
    a, b = build_monomial_algebra(p), build_monomial_algebra(q)
    assert (check_class_h(tensor(a, b)).in_class
            == (check_class_h(a).in_class and check_class_h(b).in_class))


# --- is_derivation residuals ---

def test_leibniz_defect_reported():
    cp2 = projective_space(2)
    bad = GradedLinearMap.from_images(cp2, -2, {1: cp2.basis_element(0)})
    residual = is_derivation(cp2, bad)
    assert ((1, 1), Element({1: -2})) in residual


def test_zero_map_is_a_derivation():
    for alg in (projective_space(2), torus(2)):
        assert is_derivation(alg, GradedLinearMap(-1)) == []


def perturbed(a, theta, x):
    """theta plus x e_t on every basis element i that has a target, t the
    first basis element of degree |i| + shift."""
    images = {}
    for i in range(a.dim):
        piece = a.graded_piece(a.degrees[i] + theta.shift)
        images[i] = theta.image(a, i) + Element({piece[0]: x} if piece else {})
    return GradedLinearMap.from_images(a, theta.shift, images)


def assert_residual_matches_oracle(a):
    """is_derivation equals element_residual, as a list, in order and
    value by value, on the derivations of each degree d <= 0 that takes
    some piece to a piece, the zero map there, and each of them perturbed;
    returns the number of defects of the perturbed maps."""
    defects = 0
    degrees = set(a.degrees)
    for d in sorted({t - n for t in degrees for n in degrees if t <= n}):
        for theta in derivation_space(a, d) + [GradedLinearMap(d)]:
            for m in (theta, perturbed(a, theta, Fraction(1, 3)), perturbed(a, theta, -2)):
                got, want = is_derivation(a, m), element_residual(a, m)
                assert got == want and repr(got) == repr(want), (d, m)
                defects += len(got) if m is not theta else 0
    return defects


@pytest.mark.parametrize("name", corpus.names())
def test_is_derivation_equals_element_oracle_on_corpus(name):
    a = corpus.load(name)
    cert = check_class_h(a).certificate
    if cert is not None:
        assert is_derivation(a, cert[1]) == element_residual(a, cert[1]) == []
    assert assert_residual_matches_oracle(a) > 0


@given(presentations().filter(lambda p: prod(g.truncation for g in p.generators) <= 8),
       crowded(), st.data())
@settings(max_examples=25, deadline=None)
def test_is_derivation_equals_element_oracle_on_random_tables(p, q, data):
    assert_residual_matches_oracle(build_monomial_algebra(p))
    assert_residual_matches_oracle(basis_changed(build_monomial_algebra(q), data))


def test_a_table_term_outside_the_basis_raises():
    # x * x names index 2, or -1, of a two-element basis
    for k in (2, -1):
        a = GradedAlgebra(["1", "x"], [0, 2], 0, {
            (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {k: 1}})
        for residual in (is_derivation, element_residual):
            with pytest.raises(ValueError, match=f"basis index {k} is outside 0..1"):
                residual(a, GradedLinearMap(-2))


# --- brackets ---

def test_bracket_of_odd_shift_derivations_vanishes():
    alg = lam()
    theta_a = derivation_space(alg, -3)[0]
    theta_b = derivation_space(alg, -5)[0]
    br = bracket(alg, theta_a, theta_b)
    assert br.shift == -8
    assert br.is_zero()


def test_bracket_with_euler_rescales():
    t2 = torus(2)
    euler = GradedLinearMap.from_images(
        t2, 0, {i: t2.degrees[i] * t2.basis_element(i) for i in range(t2.dim)})
    theta = GradedLinearMap.from_images(
        t2, -1, {2: t2.basis_element(0), 3: t2.basis_element(1)})
    assert is_derivation(t2, theta) == []
    assert bracket(t2, euler, theta) == scaled(theta, -1)


def test_bracket_closes_on_derivations():
    t3 = torus(3)
    space = derivation_space(t3, -1)
    for m1 in space:
        for m2 in space:
            assert is_derivation(t3, bracket(t3, m1, m2)) == []


# --- class-H verdicts ---

def test_projective_spaces_in_class():
    for n in range(1, 5):
        verdict = check_class_h(projective_space(n))
        assert verdict.in_class
        assert verdict.connectivity_ok
        assert verdict.certificate is None
        assert all(v == 0 for v in verdict.dimensions.values())
        assert sorted(verdict.dimensions) == list(range(-2 * n, 0))


def test_even_spheres_in_class():
    for n in (2, 4, 6):
        assert check_class_h(sphere(n)).in_class


def test_odd_spheres_fail_at_top_degree():
    for n in (3, 5, 7):
        verdict = check_class_h(sphere(n))
        assert not verdict.in_class
        assert verdict.connectivity_ok
        d, cert = verdict.certificate
        assert d == -n
        assert cert.blocks == {n: [[1]]}
        assert is_derivation(sphere(n), cert) == []


def test_torus_fails_with_degree_minus_one_certificate():
    for s in (1, 2, 3):
        verdict = check_class_h(torus(s))
        assert not verdict.in_class
        assert not verdict.connectivity_ok
        d, cert = verdict.certificate
        assert d == -1
        assert is_derivation(torus(s), cert) == []


def test_certificate_at_least_negative_failing_degree():
    # dimensions are recorded for every degree up to and including the failure
    verdict = check_class_h(sphere(5))
    assert verdict.dimensions == {-1: 0, -2: 0, -3: 0, -4: 0, -5: 1}


def test_max_degree_caps_the_sweep():
    verdict = check_class_h(sphere(5), max_degree=2)
    assert verdict.in_class
    assert sorted(verdict.dimensions) == [-2, -1]


def test_sweep_stops_at_the_top_degree(space_calls):
    # below degree -4 every space on CP^2 is empty for degree reasons, and
    # above it only -2 = 0 - |x| has unknowns, so it alone is solved
    verdict = check_class_h(projective_space(2), max_degree=10)
    assert space_calls == [-2]
    assert verdict.in_class and verdict.complete
    assert verdict.dimensions == {-1: 0, -2: 0, -3: 0, -4: 0}


def sweep_cases():
    """Corpus algebras, a product of three, algebras off the unit line and
    one with a negative degree, for the sweep against its oracle."""
    qxq = parse_structure_constants(
        "basis:\n1 0\ne 0\nunit: 1\nproducts:\n1 1 = 1*1\n1 e = 1*e\n"
        "e e = 1*e\n")
    neg = GradedAlgebra(["1", "y"], [0, -2], 0,
                        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}})
    cp2 = projective_space(2)
    return ([corpus.load(name) for name in corpus.names()]
            + [tensor(tensor(cp2, cp2), projective_space(1)), qxq,
               tensor(qxq, sphere(3)), neg])


def test_sweep_equals_per_degree_oracle_on_corpus():
    for a in sweep_cases():
        for cap in (None, 0, 1, 2, 3, a.top_degree + 1):
            assert check_class_h(a, cap) == per_degree_class_h(a, cap), (a, cap)


@given(presentations(), st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_sweep_equals_per_degree_oracle_on_random_presentations(p, cap):
    a = build_monomial_algebra(p)
    for limit in (None, cap):
        assert check_class_h(a, limit) == per_degree_class_h(a, limit)


@given(crowded(), st.data())
@settings(max_examples=30, deadline=None)
def test_sweep_equals_per_degree_oracle_on_basis_changed_tables(p, data):
    a = basis_changed(build_monomial_algebra(p), data)
    assert check_class_h(a) == per_degree_class_h(a)


def test_sweep_solves_only_the_degrees_with_unknowns(space_calls):
    # CP2 x CP2 x CP1: generators of degree 2 over degrees 0..10, so only
    # -2 has unknowns; the per-degree sweep solved all ten
    cp2 = projective_space(2)
    verdict = check_class_h(tensor(tensor(cp2, cp2), projective_space(1)))
    assert space_calls == [-2]
    assert verdict.dimensions == {-k: 0 for k in range(1, 11)}
    # S^19999: one system, at the top degree, where x -> 1 is a derivation
    del space_calls[:]
    verdict = check_class_h(sphere(19999))
    assert space_calls == [-19999]
    assert verdict.dimensions == {**{-k: 0 for k in range(1, 19999)}, -19999: 1}
    for a in sweep_cases():
        del space_calls[:]
        verdict = check_class_h(a)
        assert space_calls == [d for d in verdict.dimensions
                               if -d in levels_with_unknowns(a)], a


def test_capped_sweep_is_incomplete_until_it_decides():
    assert not check_class_h(sphere(5), max_degree=2).complete
    assert not check_class_h(sphere(5), max_degree=0).complete
    assert check_class_h(sphere(5), max_degree=5).complete
    assert check_class_h(sphere(5), max_degree=9).complete
    assert check_class_h(sphere(5)).complete
    # a certificate decides membership before the cap is reached
    assert check_class_h(torus(3), max_degree=1).complete
    assert check_class_h(projective_space(2)).complete


def test_negative_sweep_depth_is_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        check_class_h(sphere(3), max_degree=-1)


def test_degree_arguments_must_be_ints():
    s3 = sphere(3)
    for d in (-2.5, -3.0, "-3", None, True):
        with pytest.raises(ValueError, match="d must be an int"):
            derivation_space(s3, d)
    for cap in (2.5, 3.0, "3", False):
        with pytest.raises(ValueError, match="max_degree must be an int"):
            check_class_h(s3, cap)
    assert len(derivation_space(s3, -3)) == 1
    assert check_class_h(s3, None).dimensions == {-1: 0, -2: 0, -3: 1}


def test_point_algebra_trivially_in_class():
    verdict = check_class_h(point())
    assert verdict.in_class
    assert verdict.connectivity_ok
    assert verdict.dimensions == {}
    assert verdict.complete


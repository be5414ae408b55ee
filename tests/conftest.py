"""Shared builders, strategies and oracles for the test suite.

The builders construct the standard small algebras directly from
presentations, independently of the bundled corpus files, so the builders
themselves are under test whenever a test module uses them; identity,
identity_map, scaled and bracket build the matrices and maps that tests
feed in.  The oracles are the slow paths the library replaced, kept to
check the fast ones.
"""

import importlib.util
import os
import resource
from fractions import Fraction
from itertools import product as cartesian
from math import prod
from operator import add

import pytest
from hypothesis import strategies as st

from negder import (ClassHVerdict, Element, Generator, GradedAlgebra, GradedLinearMap,
                    LevelRecord, Presentation, ProofTrace, build_monomial_algebra, corpus,
                    derivation_space, derivations, detect_format, monomial_basis,
                    parse_presentation)
from negder.algebra import _monomial_label, check_generator
from negder.derivations import leibniz_rows
from negder.fileformats import PRESENTATION
from negder.linalg import echelon, nullspace_basis, rref


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def src_env(**overrides):
    """Environment for a child Python that imports negder from this
    checkout's src directory, with the given variables overridden."""
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def cap_memory():
    """preexec_fn for a child process: should a budget or a fast path
    fail, the child runs out of memory, not the machine."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def load_script(name, folder="scripts"):
    """The module of <folder>/<name>.py, loaded afresh."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, folder, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def flag_manifold(n):
    """H*(Fl_n; Q), built by scripts/flag_manifold.py."""
    return load_script("flag_manifold").flag_manifold(n)


def projective_space(n):
    """Q[x]/(x^(n+1)) with |x| = 2."""
    return build_monomial_algebra(
        Presentation(f"CP{n}", (Generator("x", 2, n + 1),)))


def sphere(n):
    """One generator of degree n squaring to zero."""
    return build_monomial_algebra(Presentation(f"S{n}", (Generator("x", n, 2),)))


def torus(s):
    """Exterior algebra on s degree-1 generators."""
    gens = tuple(Generator(f"i{j}", 1, 2) for j in range(1, s + 1))
    return build_monomial_algebra(Presentation(f"T{s}", gens))


def rebased_cp2xs4(cls=GradedAlgebra):
    """CP2 x S4 with the degree-4 basis {y, z = x^2 + y}, so x * x = z - y:
    a non-generator whose expansion has a unit term, y = 1 * z - x * x,
    built by cls."""
    labels = ["1", "x", "y", "z", "x*y", "x^2*y"]
    half = {(1, 1): {3: 1, 2: -1}, (1, 2): {4: 1}, (1, 3): {4: 1}, (1, 4): {5: 1},
            (2, 3): {5: 1}, (3, 3): {5: 2}}
    products = {(0, i): {i: 1} for i in range(6)}
    products.update({(i, 0): {i: 1} for i in range(6)})
    for (i, j), terms in half.items():
        products[i, j] = products[j, i] = terms
    return cls(labels, [0, 2, 4, 4, 6, 8], 0, products)


def cp2_with_x_squared_x(cls=GradedAlgebra):
    """CP2 with x * x = x, built by cls: one entry of one degree, the wrong
    one, and every other check passes."""
    cp2 = projective_space(2)
    products = {key: dict(terms) for key, terms in cp2.products.items()}
    products[1, 1] = {1: 1}
    return cls(cp2.labels, cp2.degrees, cp2.unit, products)


def point():
    """The one-point algebra Q."""
    return build_monomial_algebra(Presentation("pt", ()))


def perfbench_presentations():
    """The presentations from which the benchmark writes its inputs."""
    generated = load_script("workloads", "perfbench").GENERATED
    return [Presentation(name, tuple(Generator(*g) for g in gens))
            for name, (_, gens) in generated.items()]


def builder_presentations():
    """The presentations that the builder oracles run on: those of the
    corpus, those of the benchmark, and the point."""
    return [*(parse_presentation(corpus.text(name)) for name in corpus.names()
              if detect_format(corpus.text(name)) == PRESENTATION),
            *perfbench_presentations(), Presentation("pt", ())]


def rebuilt(a):
    """a's table built afresh through the GradedAlgebra constructor, so its
    generators and expansions come from the echelon of _elimination, not
    from a builder."""
    return GradedAlgebra(a.labels, a.degrees, a.unit, a.products, name=a.name)


def identity(n):
    """The n x n identity matrix, its entries Fractions."""
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def identity_map(a):
    """The identity of a as a degree-0 GradedLinearMap."""
    return GradedLinearMap.from_images(
        a, 0, {i: a.basis_element(i) for i in range(a.dim)})


def scaled(m, scalar):
    """scalar times the GradedLinearMap m."""
    return GradedLinearMap(m.shift, {n: [[scalar * x for x in row] for row in mat]
                                     for n, mat in m.blocks.items()})


def bracket(a, m1, m2):
    """Graded commutator [m1, m2] = m1 m2 - (-1)^(d1 d2) m2 m1, a map of
    shift d1 + d2 (a derivation whenever both inputs are)."""
    sign = -1 if (m1.shift * m2.shift) % 2 else 1
    images = {i: m1.apply(a, m2.image(a, i)) - sign * m2.apply(a, m1.image(a, i))
              for i in range(a.dim)}
    return GradedLinearMap.from_images(a, m1.shift + m2.shift, images)


def rref_kernel(m, ncols):
    """Dense oracle for nullspace_basis: the canonical kernel basis read
    off dense rref, one vector per free column in ascending order."""
    reduced, _, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for t, p in enumerate(pivots):
            v[p] = -reduced[t][f]
        basis.append(v)
    return basis


def dense(vectors, ncols):
    """The {column: value} vectors of nullspace_basis as dense lists of
    ncols entries, for comparison with rref_kernel."""
    return [[v.get(c, 0) for c in range(ncols)] for v in vectors]


def generator_pair_space(a, d):
    """Oracle for derivation_space: theta on every basis element as the
    unknowns, the Leibniz law on the pairs (g, x) with g in
    a.generator_indices, and the kernel read off nullspace_basis, one map
    per kernel vector."""
    rows, unknowns = leibniz_rows(a, d, a.generator_indices)
    maps = []
    for v in nullspace_basis(rows, len(unknowns)):
        images = {}
        for c, x in v.items():
            i, t = unknowns[c]
            images.setdefault(i, {})[t] = x
        maps.append(GradedLinearMap.from_images(
            a, d, {i: Element(img) for i, img in images.items()}))
    return maps


def element_residual(a, m):
    """Oracle for is_derivation: the Leibniz residual of m on every ordered
    basis pair, by Element arithmetic through multiply and apply."""
    out = []
    images = [m.image(a, i) for i in range(a.dim)]
    for i in range(a.dim):
        ei = a.basis_element(i)
        sign = -1 if (m.shift * a.degrees[i]) % 2 else 1
        for j in range(a.dim):
            ej = a.basis_element(j)
            defect = (m.apply(a, a.multiply(ei, ej))
                      - a.multiply(images[i], ej)
                      - sign * a.multiply(ei, images[j]))
            if defect:
                out.append(((i, j), defect))
    return out


@st.composite
def presentations(draw):
    """Up to three generators of degree 1..8, truncating at 2..4 when even."""
    count = draw(st.integers(0, 3))
    gens = []
    for idx in range(count):
        degree = draw(st.integers(1, 8))
        truncation = 2 if degree % 2 else draw(st.integers(2, 4))
        gens.append(Generator(f"g{idx}", degree, truncation))
    return Presentation("random", tuple(gens))


@pytest.fixture
def space_calls(monkeypatch):
    """The degrees of every derivation space solved, in order: the calls
    of derivations._kernel_maps, which derivation_space, check_class_h
    and so prove_rigidity all solve through."""
    calls = []
    real = derivations._kernel_maps
    monkeypatch.setattr(derivations, "_kernel_maps",
                        lambda a, d: calls.append(d) or real(a, d))
    return calls


@st.composite
def crowded(draw):
    """Two or three generators of degree 1..4, truncating at 2..3 when even,
    with at most 12 basis elements.  Such generators often share a degree
    with a product of others, so a basis change there mixes them, the
    table gets entries of several terms, and the generators that it
    yields are no longer basis monomials."""
    gens = draw(st.lists(
        st.integers(1, 4).flatmap(lambda deg: st.tuples(
            st.just(deg), st.just(2) if deg % 2 else st.integers(2, 3))),
        min_size=2, max_size=3).filter(lambda gens: prod(t for _, t in gens) <= 12))
    return Presentation("crowded", tuple(
        Generator(symbol, deg, trunc) for symbol, (deg, trunc) in zip("abc", gens)))


def invertible_matrix(data, m):
    """L U with L unit lower triangular and U upper triangular with a
    nonzero diagonal, both with small integer entries."""
    entry = st.integers(-2, 2)
    lower = [[1 if r == c else data.draw(entry) if c < r else 0 for c in range(m)]
             for r in range(m)]
    upper = [[data.draw(st.sampled_from([-2, -1, 1, 2])) if r == c
              else data.draw(entry) if c > r else 0 for c in range(m)]
             for r in range(m)]
    return [[sum(lower[r][k] * upper[k][c] for k in range(m)) for c in range(m)]
            for r in range(m)]


def basis_changed(a, data):
    """a in a new basis: in each positive degree n, new basis element
    number r of graded_piece(n) is sum_c M[r][c] e_(piece[c]) for a drawn
    invertible M.  The table is rewritten in the new basis."""
    to_new = {}  # old basis index -> its {new basis index: coefficient}
    to_old = {}  # new basis index -> its {old basis index: coefficient}
    for n in sorted(set(a.degrees)):
        piece = a.graded_piece(n)
        m = len(piece)
        mat = invertible_matrix(data, m) if n > 0 else [[1]]
        reduced, _, _ = rref([row + [int(r == c) for c in range(m)]
                              for r, row in enumerate(mat)])
        inverse = [row[m:] for row in reduced]
        for r, idx in enumerate(piece):
            to_old[idx] = {piece[c]: x for c, x in enumerate(mat[r]) if x}
            to_new[idx] = {piece[c]: x for c, x in enumerate(inverse[r]) if x}
    products = {}
    for i in range(a.dim):
        for j in range(a.dim):
            old = a.multiply(Element(to_old[i]), Element(to_old[j]))
            new = {}
            for k, c in old.coeffs.items():
                for t, x in to_new[k].items():
                    new[t] = new.get(t, 0) + c * x
            products[(i, j)] = new
    return GradedAlgebra(a.labels, a.degrees, a.unit, products, name=a.name)


@st.composite
def corrupted(draw, algebra):
    """algebra's table with one to three entries added, dropped or negated."""
    products = {key: dict(terms) for key, terms in algebra.products.items()}
    index = st.integers(0, algebra.dim - 1)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["add", "drop", "negate"]))
        if op == "add":
            key = (draw(index), draw(index))
            products.setdefault(key, {})[draw(index)] = draw(
                st.sampled_from([-2, -1, 1, 2]))
        elif products:
            key = draw(st.sampled_from(sorted(products)))
            if op == "drop":
                del products[key]
            else:
                products[key] = {k: -c for k, c in products[key].items()}
    return GradedAlgebra(algebra.labels, algebra.degrees, algebra.unit, products)


def keywise_checks(a):
    """Oracle for the index, degree, unit and commutativity checks of
    GradedAlgebra.validate: the loops it replaced, which sort and compare
    every key and its entry afresh, with no work shared between keys that
    share an entry: the degree, unit and commutativity violations."""
    dim, degrees, labels = a.dim, a.degrees, a.labels
    table = a.products
    keys = sorted(table)
    out = []
    for i, j in keys:
        want = degrees[i] + degrees[j]
        for k in sorted(table[i, j]):
            if degrees[k] != want:
                out.append(f"degree additivity: {labels[i]} * {labels[j]} "
                           f"hits {labels[k]} of degree {degrees[k]}, expected {want}")
    empty = {}
    for j in range(dim):
        if table.get((a.unit, j), empty) != {j: 1}:
            out.append(f"unit law: 1 * {labels[j]} != {labels[j]}")
        if j != a.unit and table.get((j, a.unit), empty) != {j: 1}:
            out.append(f"unit law: {labels[j]} * 1 != {labels[j]}")
    for i, j in sorted({(i, j) if i <= j else (j, i) for i, j in keys}):
        sign = -1 if (degrees[i] * degrees[j]) % 2 else 1
        mirror = {k: sign * c for k, c in table.get((i, j), empty).items()}
        if table.get((j, i), empty) != mirror:
            rel = "-" if sign < 0 else ""
            out.append(f"graded commutativity: {labels[j]} * {labels[i]} "
                       f"!= {rel}({labels[i]} * {labels[j]})")
    return out


def exhaustive_validate(a):
    """Oracle for GradedAlgebra.validate: the violations of keywise_checks,
    then associativity on every basis triple by Element arithmetic,
    rebuilding each basis product through multiply."""
    out = keywise_checks(a)
    dim = a.dim
    for i in range(dim):
        ei = a.basis_element(i)
        for j in range(dim):
            left = a.multiply(ei, a.basis_element(j))
            for k in range(dim):
                ek = a.basis_element(k)
                lhs = a.multiply(left, ek)
                rhs = a.multiply(ei, a.multiply(a.basis_element(j), ek))
                if lhs != rhs:
                    out.append(
                        f"associativity: ({a.labels[i]} * {a.labels[j]}) * {a.labels[k]} "
                        f"!= {a.labels[i]} * ({a.labels[j]} * {a.labels[k]})"
                    )
    return out


def echelon_generators(a):
    """Oracle for GradedAlgebra.generator_indices: echelon over every distinct
    entry e_i e_j with |i|, |j| > 0, one-term entries included; the
    generators are the unit and the other indices that are not pivot
    columns, every other index of degree 0 among them."""
    degrees = a.degrees
    entries = {id(terms): terms for (i, j), terms in a._table.items()
               if degrees[i] > 0 and degrees[j] > 0}
    pivots = echelon(entries.values())
    return (a.unit,) + tuple(i for i in range(a.dim) if i != a.unit and i not in pivots)


def sort_sign(first, second, odd):
    """Sign from sorting the word g^first . g^second back into generator
    order: each odd letter of the second block walks past the odd letters
    of higher generators in the first block, whose parity is later.  The
    loop that the bit masks of algebra._sign_masks replaced."""
    t = later = 0
    for i in range(len(odd) - 1, -1, -1):
        if odd[i]:
            t ^= second[i] & later
            later ^= first[i] & 1
    return -1 if t else 1


def quadratic_sort_sign(first, second, odd):
    """Oracle for the Koszul sign of a monomial product, as sort_sign and
    the masks of algebra._sign_masks give it: for each odd generator i,
    the letters of the second block at i walk past the odd letters of
    higher generators in the first block, summed afresh for every i."""
    t = 0
    for i in range(len(odd)):
        if odd[i] and second[i]:
            t += second[i] * sum(first[j] for j in range(i + 1, len(odd)) if odd[j])
    return -1 if t % 2 else 1


def key_sorted_basis(p):
    """Oracle for monomial_basis: (exponent vectors, labels, degrees), the
    vectors sorted with a key that works out each degree inside the sort
    and again for the degree list, once check_generator passes p."""
    gens = list(p.generators)
    seen, entries = set(), 1
    for g in gens:
        entries = check_generator(g, seen, entries)
    degrees_of = lambda e: sum(x * g.degree for x, g in zip(e, gens))
    exps = sorted(cartesian(*(range(g.truncation) for g in gens)),
                  key=lambda e: (degrees_of(e), e))
    return exps, [_monomial_label(e, gens) for e in exps], [degrees_of(e) for e in exps]


def pair_loop_monomial_algebra(p):
    """Oracle for the order of build_monomial_algebra's table: the pair loop
    it replaced, with tuple exponent vectors.  For each basis element e, in
    basis order, every partner f of the box below the truncations minus e,
    in itertools.product order, keyed by their indices, with the shared
    entry +e_k or -e_k of k = e + f and the sign of sort_sign."""
    basis = monomial_basis(p)
    exps = basis.monomial_exponents
    gens = p.generators
    odd = [g.degree % 2 == 1 for g in gens]
    index_of = {e: i for i, e in enumerate(exps)}
    plus = [{k: 1} for k in range(len(exps))]
    minus = [{k: -1} for k in range(len(exps))]

    def pairs():
        for i, e in enumerate(exps):
            for f in cartesian(*(range(g.truncation - x) for x, g in zip(e, gens))):
                k = index_of[tuple(map(add, e, f))]
                yield (i, index_of[f]), minus[k] if sort_sign(e, f, odd) < 0 else plus[k]

    return GradedAlgebra(basis.labels, basis.degrees, basis.unit, pairs(), name=p.name)


def table_items(a):
    """The table of a as a list of (key, entry, n) in its order, n numbering
    the distinct entry objects by first use, so two tables compare equal
    only with the same keys, order, entries and sharing of entries."""
    first = {}
    return [(key, terms, first.setdefault(id(terms), len(first)))
            for key, terms in a._table.items()]


def all_pairs_monomial_algebra(p):
    """Oracle for build_monomial_algebra: the basis of key_sorted_basis,
    with every pair of exponent vectors tested and kept when its sum stays
    below every truncation; key_sorted_basis checks p."""
    exps, labels, degrees = key_sorted_basis(p)
    gens = list(p.generators)
    odd = [g.degree % 2 == 1 for g in gens]
    index_of = {e: i for i, e in enumerate(exps)}
    products = {}
    for i, e in enumerate(exps):
        for j, f in enumerate(exps):
            total = tuple(a + b for a, b in zip(e, f))
            if any(t >= g.truncation for t, g in zip(total, gens)):
                continue
            products[(i, j)] = {index_of[total]: quadratic_sort_sign(e, f, odd)}
    alg = GradedAlgebra(labels, degrees, index_of[tuple(0 for _ in gens)],
                        products, name=p.name)
    alg.monomial_exponents = exps
    return alg


def accumulating_tensor(a, b):
    """Oracle for tensor: each entry summed term by term into a dict that
    a key may already hold, with the Koszul sign of tensor."""
    dim_b = b.dim
    products = {}
    for (i1, i2), aterms in a.products.items():
        for (j1, j2), bterms in b.products.items():
            sign = -1 if (b.degrees[j1] * a.degrees[i2]) % 2 else 1
            entry = products.setdefault((i1 * dim_b + j1, i2 * dim_b + j2), {})
            for k1, c1 in aterms.items():
                for k2, c2 in bterms.items():
                    k = k1 * dim_b + k2
                    entry[k] = entry.get(k, 0) + sign * c1 * c2
    return GradedAlgebra([f"{la}⊗{lb}" for la in a.labels for lb in b.labels],
                         [da + db for da in a.degrees for db in b.degrees],
                         a.unit * dim_b + b.unit, products,
                         name=f"{a.name}x{b.name}" if a.name and b.name else "")


def per_degree_class_h(a, max_degree=None):
    """Oracle for check_class_h: the sweep it replaced, one derivation_space
    call per degree -1, -2, ... down to -min(max_degree, top degree),
    stopping at the first nonzero space; the certificate is not checked."""
    depth = a.top_degree if max_degree is None else max_degree
    dimensions = {}
    certificate = None
    for k in range(1, min(depth, a.top_degree) + 1):
        space = derivation_space(a, -k)
        dimensions[-k] = len(space)
        if space:
            certificate = (-k, space[0])
            break
    return ClassHVerdict(
        in_class=certificate is None,
        connectivity_ok=a.graded_piece(0) == [a.unit] and not a.graded_piece(1),
        certificate=certificate,
        dimensions=dimensions,
        complete=certificate is not None or depth >= a.top_degree)


def levels_with_unknowns(a):
    """The k in 1..top degree for which the solver has unknowns at degree
    -k, asked of the solver's own count of them."""
    return {k for k in range(1, a.top_degree + 1) if derivations._unknowns(a, -k)[1]}


def rigidity_by_levels(base, torus_rank):
    """Oracle for prove_rigidity: its own derivation_space call per level,
    up to min(torus rank, top degree), stopping at the first nonzero space."""
    cap = min(torus_rank, base.top_degree)
    levels = []
    for k in range(1, cap + 1):
        space = derivation_space(base, -k)
        levels.append(LevelRecord(k, len(space), space[0] if space else None))
        if space:
            return ProofTrace(torus_rank, cap, levels, False, k)
    return ProofTrace(torus_rank, cap, levels, True, None)

"""Derivations of graded algebras and the class-H membership check.

A derivation of degree d satisfies the Koszul-signed Leibniz law

    theta(u v) = theta(u) v + (-1)^(d |u|) u theta(v).

The solver knows nothing about presentations.  A derivation is fixed by
its values on the algebra's generator_indices, which the algebra reads
off its table by one echelon, or build_monomial_algebra hands over for a
presentation, so the unknowns are U_d, the sum of A_(|g| + d) over the
non-unit generators g.  theta is carried to every other basis element through the
products that write it (GradedAlgebra.expansions), of two
positive-degree elements of lower degree or of the unit and a generator
of its degree, as linear forms over U_d, and the law is imposed on the pairs
(g, x), x any basis element, in ascending degree of g x, until the rank
is |U_d|.  The pairs are summed one at a time, as the solver reads their
rows, so once the rank is full no further pair is built.  On an
associative table the law then holds on every ordered basis pair, so it
works for any valid structure-constant table.  The rows are read off the
table as it stores its values, ints where integral (see linalg).
Solution spaces come back as the canonical basis of the kernel on every
basis element, reshaped into per-degree blocks held the same way.  A
verdict needs one map per space: check_class_h reads the same canonical
basis as derivation_space, through _kernel_maps, and reshapes only its
first map, the certificate, where derivation_space reshapes them all.  The
exact self-check of nullspace_basis covers the system over U_d only, so
check_class_h also checks its certificate on the table before it returns
it.  The Leibniz residual is summed in one place apart from this path,
_defects: on the pairs (g, x) for that check, and on every ordered basis
pair for is_derivation.  The system on the unknowns theta(e_i) for every
i stays available, as the oracles leibniz_rows and leibniz_system.

What is proved: the kernel check shows that each reported vector solves
the system, so the true dimension is at least the reported one.  An
empty space, and so "in class H", rests on _eliminate reaching full
rank, which nothing checks independently yet.  The assembly of the
system is checked only through the certificate guard, so only when the
space is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Element, _check_index
from .linalg import _check_int, _fold, _items, _quote, echelon, nullspace_basis


def _sign(exponent):
    return -1 if exponent % 2 else 1


class GradedLinearMap:
    """Degree-homogeneous linear self-map, stored as one matrix per source
    degree.  The block for source degree n has rows indexed by
    graded_piece(n + shift) and columns by graded_piece(n).  All-zero and
    empty blocks are dropped, so a map is zero iff it stores no blocks.
    Shift and block degrees are ints, blocks a mapping of lists of rows,
    entries ints or Fractions (_fold); anything else raises ValueError
    naming it."""

    __slots__ = ("shift", "blocks")

    def __init__(self, shift, blocks=None):
        self.shift = _check_int("shift", shift)
        cleaned = {}
        for n, mat in _items({} if blocks is None else blocks,
                             "blocks must be a mapping {degree: block}"):
            _check_int("block degree", n)
            try:
                rows = [[x if type(x) is int else _fold(x) for x in row] for row in mat]
            except TypeError:
                raise ValueError(f"block at degree {_quote(n)} must be a list of rows, "
                                 f"not {_quote(mat)}") from None
            if any(any(row) for row in rows):
                cleaned[n] = rows
        self.blocks = cleaned

    def is_zero(self):
        return not self.blocks

    def __eq__(self, other):
        if not isinstance(other, GradedLinearMap):
            return NotImplemented
        return self.shift == other.shift and self.blocks == other.blocks

    def __repr__(self):
        return f"GradedLinearMap(shift={self.shift}, blocks={sorted(self.blocks)})"

    def image(self, algebra, i):
        """Image of basis element i: its column of the block at its degree,
        zero where no block is stored."""
        _check_index(algebra, i)
        n = algebra.degrees[i]
        mat = self.blocks.get(n)
        if mat is None:
            return Element()
        c = algebra.position[i]
        return Element({t: row[c] for t, row in zip(self._target(algebra, n), mat) if row[c]})

    def _target(self, algebra, n):
        """The target piece of the block at source degree n; ValueError
        unless the block has a row per target and a column per source
        basis element, so a block at a degree the algebra lacks fails."""
        mat = self.blocks[n]
        width = len(algebra.graded_piece(n))
        tgt = algebra.graded_piece(n + self.shift)
        if len(mat) != len(tgt) or any(len(row) != width for row in mat):
            raise ValueError(f"block at degree {_quote(n)} does not match the graded pieces")
        return tgt

    def apply(self, algebra, elt):
        """Image of elt: the sum of c * image(i) over its terms c e_i."""
        out = {}
        for i, c in elt.coeffs.items():
            for t, x in self.image(algebra, i).coeffs.items():
                out[t] = out.get(t, 0) + c * x
        return Element(out)

    @classmethod
    def from_images(cls, algebra, shift, images):
        """Assemble a map of the int shift from basis images {index:
        Element}, omitted ones zero, writing each nonzero image straight
        into its column at algebra.position; every target must lie in the
        piece of degree |i| + shift.  Each entry is 0 or a value of an
        Element, held as by _fold, so the blocks are kept as they are.
        Images that are not a mapping, or a nonzero image that is not an
        Element, raise ValueError."""
        _check_int("shift", shift)
        degrees, position = algebra.degrees, algebra.position
        blocks = {}
        for i, img in _items(images, "images must be a mapping {index: Element}"):
            _check_index(algebra, i)
            if not img:
                continue
            try:
                coeffs = img.coeffs
            except AttributeError:
                raise ValueError(f"image of {_quote(i)} must be an Element, "
                                 f"not {_quote(img)}") from None
            n = degrees[i]
            if n not in blocks:
                tgt = algebra.graded_piece(n + shift)
                if not tgt:
                    raise ValueError("image lands in an empty piece")
                blocks[n] = [[0] * len(algebra.graded_piece(n)) for _ in tgt]
            col, block = position[i], blocks[n]
            for t, x in coeffs.items():
                if not 0 <= t < algebra.dim or degrees[t] != n + shift:
                    raise ValueError("image off the shifted piece")
                block[position[t]][col] = x
        m = cls.__new__(cls)
        m.shift, m.blocks = shift, blocks
        return m


def _add(row, c, x):
    if c in row:
        x += row[c]
        if not x:
            del row[c]
            return
    row[c] = x


def leibniz_rows(a, d, left):
    """Sparse linear system whose kernel is the space of degree-d derivations,
    on the unknowns theta(e_i) for every basis element: the oracle that
    derivation_space replaces.

    Unknowns: pairs (i, t) meaning the coefficient of basis t in theta(e_i),
    enumerated with i ascending and t in graded-piece order.  Rows: for
    every left factor i in left, in its order, every basis element j and
    every basis element of the target degree |i| + |j| + d, the Leibniz law
    on (e_i, e_j) written as LHS - RHS = 0, as a {column: coefficient} dict
    of its nonzero entries (empty for a zero row), its values ints where
    integral, as in the table.  Returns (rows, unknowns).

    left = range(a.dim) imposes the law on every ordered basis pair.  Any
    left that holds the unit and generates a as an algebra gives the same
    kernel, provided the table is associative: the law on (1, x) forces
    theta(1) = 0, and the elements u with the law on every (u, x) are
    closed under products.
    """
    _check_int("d", d)
    pieces = {n: a.graded_piece(n) for n in set(a.degrees)}
    pos = a.position
    none = ()
    unknowns = []
    base = []
    for i in range(a.dim):
        base.append(len(unknowns))
        unknowns.extend((i, t) for t in pieces.get(a.degrees[i] + d, none))
    table = a._table
    empty = {}
    rows = []
    for i in left:
        di = a.degrees[i]
        sign = _sign(d * di)
        bi = base[i]
        shifted = pieces.get(di + d, none)
        for j in range(a.dim):
            dj = a.degrees[j]
            targets = pieces.get(di + dj + d)
            if not targets:
                continue
            eq = {t: {} for t in targets}
            for k, c in table.get((i, j), empty).items():
                bk = base[k]
                for t in targets:
                    _add(eq[t], bk + pos[t], c)
            for t1 in shifted:
                for k2, c in table.get((t1, j), empty).items():
                    _add(eq[k2], bi + pos[t1], -c)
            bj = base[j]
            for t2 in pieces.get(dj + d, none):
                for k2, c in table.get((i, t2), empty).items():
                    _add(eq[k2], bj + pos[t2], -sign * c)
            rows.extend(eq[t] for t in targets)
    return rows, unknowns


def leibniz_system(a, d):
    """Dense view of the all-pairs leibniz_rows, left = range(a.dim): the
    same rows, zero rows included, in the same order, each a list of
    Fraction.  Returns (rows, unknowns)."""
    rows, unknowns = leibniz_rows(a, d, range(a.dim))
    zero = Fraction(0)
    dense = []
    for row in rows:
        line = [zero] * len(unknowns)
        for c, x in row.items():
            line[c] = Fraction(x)
        dense.append(line)
    return dense, unknowns


def _product_rule(out, table, theta, sign, i, j, f):
    """out += f (theta(i) j + sign i theta(j)), the Leibniz value of
    theta(i j), on {(basis index, column): coefficient} with zeros kept."""
    empty = {}
    for (t, c), x in theta[i].items():
        for m, p in table.get((t, j), empty).items():
            out[m, c] = out.get((m, c), 0) + f * p * x
    f *= sign
    for (t, c), x in theta[j].items():
        for m, p in table.get((i, t), empty).items():
            out[m, c] = out.get((m, c), 0) + f * p * x


def _unknowns(a, d):
    """theta on the unit and the other generators g, as {index: {(t,
    column): coefficient}}: theta(1) = 0, and the coefficient of t in
    theta(g), for t in A_(|g| + d), is its own column of U_d.  The other
    generators are generator_indices[1:], since the unit comes first there.
    Returns (theta, |U_d|)."""
    theta = {a.unit: {}}
    ncols = 0
    for g in a.generator_indices[1:]:
        piece = a.graded_piece(a.degrees[g] + d)
        theta[g] = {(t, ncols + k): 1 for k, t in enumerate(piece)}
        ncols += len(piece)
    return theta, ncols


def _constraints(a, d, theta):
    """The Leibniz law on the pairs (g, x), g a non-unit generator and x
    any basis element, as its nonzero rows {column: coefficient} over U_d,
    at most one per basis element of A_(|g x| + d); the pair (g, 1) gives
    theta(g) - theta(g) 1 = 0 and so none.  The pairs come in
    ascending n = |g x|, then g, then x, and each pair's rows are yielded
    as soon as that pair is summed, in the order their first nonzero
    entry was reached, so a reader that stops early leaves the later
    pairs unsummed.  Before the first pair of degree n, theta is carried
    to the non-generators of degree n through their expansions, by
    theta(i j) = theta(i) j + (-1)^(d |i|) i theta(j) on each product term
    alone: two positive-degree factors, whose theta is carried already
    since their degrees are below n, or the unit, whose theta is 0 and
    whose sign is +1, and a generator; so it covers every basis element
    once the generator is exhausted."""
    table = a._table
    degrees = a.degrees
    signs = {g: _sign(d * degrees[g]) for g in a.generator_indices[1:]}
    pieces = {n: a.graded_piece(n) for n in set(degrees)}
    none = ()
    empty = {}
    # the degrees of the basis, and those whose targets n + d hold a row
    for n in sorted(pieces.keys() | {m - d for m in pieces}):
        for x in pieces.get(n, none):
            if x not in theta:
                out = {}
                for (i, j), c in a.expansions[x].items():
                    _product_rule(out, table, theta, _sign(d * degrees[i]), i, j, c)
                theta[x] = {key: v for key, v in out.items() if v}
        if n + d not in pieces:
            continue
        for g, sign in signs.items():
            for x in pieces.get(n - degrees[g], none):
                out = {}
                for k, p in table.get((g, x), empty).items():
                    for key, v in theta[k].items():
                        out[key] = out.get(key, 0) + p * v
                _product_rule(out, table, theta, sign, g, x, -1)
                rows = {}
                for (t, c), v in out.items():
                    if v:
                        rows.setdefault(t, {})[c] = v
                yield from rows.values()


def derivation_space(a, d):
    """Canonical basis of the space of degree-d derivations of a.

    A derivation is fixed by its values on the generators, and
    theta(1) = theta(1 1) = 2 theta(1) is 0 in any unital algebra, so the
    unknowns are U_d (see the module docstring); with U_d empty, no system
    is solved.  theta(i j) = theta(i) j + (-1)^(d |i|) i theta(j), for the
    two factors of each expansion term, carries theta to every other basis
    element, and the Leibniz rows on the pairs (g, x) go to nullspace_basis
    pair by pair, in ascending degree of g x, each pair summed only when
    the solver reads past the one before: at rank |U_d| it stops, no later
    pair is summed, and the space is zero.
    The table must be associative, as every validated table is.

    The basis is the one read off the system on every basis element, with
    unknowns (i, t) in order of i, then t: one vector per free column, its
    last nonzero, with 1 there and 0 at the other free columns.  That is
    the RREF of the kernel, carried to every basis element, with the
    column order reversed, so it is echelon over the columns (-i, -t).
    Each sparse kernel vector v of nullspace_basis, a {column: value} dict
    of its nonzero entries, is carried as it is, the image entry x at
    column c adding x v[c] for each column c that v holds, and each vector
    becomes one GradedLinearMap, in ascending order of its free column;
    the list is empty exactly when only the zero derivation exists.  d
    must be an int, and is checked here, once, before anything is solved.
    Every map is built; check_class_h, which keeps only the first, reads
    the same basis through _kernel_maps.
    """
    _check_int("d", d)
    return list(_kernel_maps(a, d)[1])


def _kernel_maps(a, d):
    """(dimension, maps) for derivation_space(a, d): the dimension of the
    space, and an iterator over its canonical basis, in order, that builds
    each GradedLinearMap only when it is read.  The echelon that fixes the
    basis is reduced before it returns, so reading the first map alone
    gives the first map of derivation_space.  d is not checked here:
    derivation_space checks it, and check_class_h passes the ints it
    builds."""
    theta, ncols = _unknowns(a, d)
    if not ncols:
        return 0, iter(())
    vectors = []
    for v in nullspace_basis(_constraints(a, d, theta), ncols):
        vector = {}
        for i, img in theta.items():
            for (t, c), x in img.items():
                if c in v:
                    _add(vector, (-i, -t), x * v[c])
        vectors.append(vector)
    rows = sorted(echelon(vectors).items(), reverse=True)
    return len(rows), (_canonical_map(a, d, v) for _, v in rows)


def _canonical_map(a, d, v):
    """The GradedLinearMap of shift d of an echelon row {(-i, -t): x}."""
    images = {}
    for (i, t), x in v.items():
        images.setdefault(-i, {})[-t] = x
    return GradedLinearMap.from_images(
        a, d, {i: Element(img) for i, img in images.items()})


def _defects(a, m, left):
    """Yield ((i, x), defect), i in left and x in the basis, in that order,
    for each nonzero {index: value} defect m(e_i e_x) - m(e_i) e_x -
    (-1)^(d |i|) e_i m(e_x), summed from the table and each image of m read
    once, apart from the solver.  Every stored block of m is checked
    against its pieces before any image is read, so a block that no image
    reads still raises ValueError."""
    table, empty = a._table, {}
    images = dict.fromkeys(range(a.dim), empty)
    for n, mat in m.blocks.items():
        tgt = m._target(a, n)
        for c, i in enumerate(a.graded_piece(n)):
            images[i] = {t: row[c] for t, row in zip(tgt, mat) if row[c]}
    for i in left:
        sign = _sign(m.shift * a.degrees[i])
        for x in range(a.dim):
            defect = {}
            for k, c in table.get((i, x), empty).items():
                for t, y in images[k].items():
                    _add(defect, t, c * y)
            for t, y in images[i].items():
                for k, c in table.get((t, x), empty).items():
                    _add(defect, k, -c * y)
            for t, y in images[x].items():
                for k, c in table.get((i, t), empty).items():
                    _add(defect, k, -sign * c * y)
            if defect:
                yield (i, x), defect


def is_derivation(a, m):
    """Exact Leibniz residual of m over every ordered basis pair.

    Returns a list of ((i, j), defect Element) entries for the violated
    pairs, in i, j order; an empty list means m is a derivation.  A block
    of m whose shape does not match the pieces of a raises ValueError.
    """
    return [(pair, Element(defect)) for pair, defect in _defects(a, m, range(a.dim))]


@dataclass
class ClassHVerdict:
    """Outcome of the negative-degree derivation sweep.

    in_class is certificate-backed: it is False exactly when a nonzero
    negative-degree derivation exists in the checked range, and then
    certificate holds (degree, first canonical basis derivation) at the
    least negative failing degree.  complete is False when a capped sweep
    found nothing: class H is then undecided.  connectivity_ok reports
    separately whether degree 0 is the unit line and degree 1 is empty.
    """

    in_class: bool
    connectivity_ok: bool
    certificate: tuple[int, GradedLinearMap] | None
    dimensions: dict[int, int]
    complete: bool


def check_class_h(a, max_degree=None):
    """Sweep derivation degrees -1, -2, ... down to -min(max_degree, top
    degree), with no cap meaning the top degree, below which every space
    is empty for degree reasons; stop at the first nonzero space.
    max_degree must be an int or None.  Only the degrees -k with unknowns
    are solved: U_(-k) is nonzero only for k = |g| - n, g a non-unit
    generator and n a degree of a, and every other degree is recorded with
    dimension 0, as derivation_space would return no map there.  Each
    degree is solved as
    derivation_space solves it, through _kernel_maps, but only one map is
    built for the verdict: the certificate, the first map of the same
    canonical basis, so a space of dimension n costs one reshaped map, not
    n.  The certificate is checked on every pair (g, x) with g a generator
    before it is returned, and ArithmeticError is raised if it fails.
    prove_rigidity reads its levels off this sweep."""
    if max_degree is not None:
        _check_int("max_degree", max_degree)
    depth = a.top_degree if max_degree is None else max_degree
    if depth < 0:
        raise ValueError("max_degree must be nonnegative")
    connectivity_ok = a.graded_piece(0) == [a.unit] and not a.graded_piece(1)
    dimensions = {}
    certificate = None
    present = set(a.degrees)
    solved = {a.degrees[g] - n for g in a.generator_indices[1:] for n in present}
    for k in range(1, min(depth, a.top_degree) + 1):
        if k not in solved:
            dimensions[-k] = 0
            continue
        dimensions[-k], maps = _kernel_maps(a, -k)
        if dimensions[-k]:
            theta = next(maps)
            for (g, x), _ in _defects(a, theta, a.generator_indices):
                raise ArithmeticError(f"the certificate fails the Leibniz law on "
                                      f"({a.labels[g]}, {a.labels[x]})")
            certificate = (-k, theta)
            break
    return ClassHVerdict(
        in_class=certificate is None,
        connectivity_ok=connectivity_ok,
        certificate=certificate,
        dimensions=dimensions,
        complete=certificate is not None or depth >= a.top_degree,
    )

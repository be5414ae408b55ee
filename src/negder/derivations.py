"""Derivations of graded algebras and the class-H membership check.

A derivation of degree d satisfies the Koszul-signed Leibniz law

    theta(u v) = theta(u) v + (-1)^(d |u|) u theta(v).

The solver knows nothing about presentations: theta's value on every basis
element is an unknown, and the law is imposed on the pairs (g, x) with g
one of the algebra's generator_indices, read off the table alone, and x
any basis element.  On an associative table that system has the same
kernel as the one on every ordered basis pair, so it works for any valid
structure-constant table.  Solution spaces come back as the canonical
kernel basis of that linear system, reshaped into per-degree blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Element, integral_view
from .linalg import nullspace_basis


def _sign(exponent):
    return -1 if exponent % 2 else 1


class GradedLinearMap:
    """Degree-homogeneous linear self-map, stored as one matrix per source
    degree.  The block for source degree n has rows indexed by
    graded_piece(n + shift) and columns by graded_piece(n).  All-zero and
    empty blocks are dropped, so a map is zero iff it stores no blocks."""

    __slots__ = ("shift", "blocks")

    def __init__(self, shift, blocks=None):
        self.shift = int(shift)
        cleaned = {}
        for n, mat in (blocks or {}).items():
            rows = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in mat]
            if any(any(row) for row in rows):
                cleaned[int(n)] = rows
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
        src = algebra.graded_piece(n)
        tgt = algebra.graded_piece(n + self.shift)
        if len(mat) != len(tgt) or len(mat[0]) != len(src):
            raise ValueError(f"block at degree {n} does not match the graded pieces")
        c = src.index(i)
        return Element({t: row[c] for t, row in zip(tgt, mat) if row[c]})

    def apply(self, algebra, elt):
        """Image of elt: the sum of c * image(i) over its terms c e_i."""
        out = {}
        for i, c in elt.coeffs.items():
            for t, x in self.image(algebra, i).coeffs.items():
                out[t] = out.get(t, 0) + c * x
        return Element(out)

    def scaled(self, scalar):
        scalar = Fraction(scalar)
        return GradedLinearMap(
            self.shift,
            {n: [[scalar * x for x in row] for row in mat]
             for n, mat in self.blocks.items()},
        )

    @classmethod
    def from_images(cls, algebra, shift, images):
        """Assemble a map from basis images {index: Element}, omitted ones
        zero, writing the column of each nonzero image into its block."""
        blocks = {}
        for i, img in images.items():
            _check_index(algebra, i)
            if not img:
                continue
            n = algebra.degrees[i]
            src = algebra.graded_piece(n)
            tgt = algebra.graded_piece(n + shift)
            if not tgt:
                raise ValueError("image lands in an empty piece")
            if n not in blocks:
                blocks[n] = [[Fraction(0)] * len(src) for _ in tgt]
            c = src.index(i)
            for t, x in img.coeffs.items():
                if t not in tgt:
                    raise ValueError("image off the shifted piece")
                blocks[n][tgt.index(t)][c] = x
        return cls(shift, blocks)


def _check_int(name, value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, not {value!r}")


def _check_index(algebra, i):
    if not 0 <= i < algebra.dim:
        raise ValueError(f"basis index {i} is outside 0..{algebra.dim - 1}")


def identity_map(algebra):
    return GradedLinearMap.from_images(
        algebra, 0, {i: algebra.basis_element(i) for i in range(algebra.dim)})


def _add(row, c, x):
    if c in row:
        x += row[c]
        if not x:
            del row[c]
            return
    row[c] = x


def leibniz_rows(a, d, left):
    """Sparse linear system whose kernel is the space of degree-d derivations.

    Unknowns: pairs (i, t) meaning the coefficient of basis t in theta(e_i),
    enumerated with i ascending and t in graded-piece order.  Rows: for
    every left factor i in left, in its order, every basis element j and
    every basis element of the target degree |i| + |j| + d, the Leibniz law
    on (e_i, e_j) written as LHS - RHS = 0, as a {column: coefficient} dict
    of its nonzero entries (empty for a zero row).  The table is read
    through integral_view, so an integral coefficient is an int and any
    other a Fraction.  Returns (rows, unknowns).

    left = range(a.dim) imposes the law on every ordered basis pair.  Any
    left that holds the unit and generates a as an algebra gives the same
    kernel, provided the table is associative: the law on (1, x) forces
    theta(1) = 0, and the elements u with the law on every (u, x) are
    closed under products.
    """
    pieces = {n: a.graded_piece(n) for n in set(a.degrees)}
    pos = {}
    for piece in pieces.values():
        pos.update((t, p) for p, t in enumerate(piece))
    none = ()
    unknowns = []
    base = []
    for i in range(a.dim):
        base.append(len(unknowns))
        unknowns.extend((i, t) for t in pieces.get(a.degrees[i] + d, none))
    table = integral_view(a.products)
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


def derivation_space(a, d):
    """Canonical basis of the space of degree-d derivations of a.

    The Leibniz system is built on the left factors a.generator_indices
    only, so the table must be associative, as every validated table is;
    its kernel is then the all-pairs kernel.  Each kernel vector becomes
    one GradedLinearMap; the list is empty exactly when only the zero
    derivation exists.

    A derivation is fixed by its values on the generators, and
    theta(1) = theta(1 1) = 2 theta(1) is 0 in any unital algebra.  So when
    every other generator g has an empty target piece A_(|g| + d), the
    space is zero, and no system is built.  This holds in the fallback to
    every index too.  When degree 0 is the unit line, it covers every d
    below minus the largest generator degree.  d must be an int.
    """
    _check_int("d", d)
    if not any(a.graded_piece(a.degrees[g] + d)
               for g in a.generator_indices if g != a.unit):
        return []
    rows, unknowns = leibniz_rows(a, d, a.generator_indices)
    maps = []
    for v in nullspace_basis(rows, ncols=len(unknowns)):
        images = {}
        for (i, t), x in zip(unknowns, v):
            if x:
                images.setdefault(i, {})[t] = x
        maps.append(GradedLinearMap.from_images(
            a, d, {i: Element(img) for i, img in images.items()}))
    return maps


def is_derivation(a, m):
    """Exact Leibniz residual of m over every ordered basis pair.

    Returns a list of ((i, j), defect Element) entries for the violated
    pairs; an empty list means m is a derivation.
    """
    out = []
    images = [m.image(a, i) for i in range(a.dim)]
    for i in range(a.dim):
        ei = a.basis_element(i)
        sign = _sign(m.shift * a.degrees[i])
        for j in range(a.dim):
            ej = a.basis_element(j)
            defect = (m.apply(a, a.multiply(ei, ej))
                      - a.multiply(images[i], ej)
                      - sign * a.multiply(ei, images[j]))
            if defect:
                out.append(((i, j), defect))
    return out


def bracket(a, m1, m2):
    """Graded commutator [m1, m2] = m1 m2 - (-1)^(d1 d2) m2 m1, a map of
    shift d1 + d2 (a derivation whenever both inputs are)."""
    sign = _sign(m1.shift * m2.shift)
    images = {i: m1.apply(a, m2.image(a, i)) - sign * m2.apply(a, m1.image(a, i))
              for i in range(a.dim)}
    return GradedLinearMap.from_images(a, m1.shift + m2.shift, images)


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
    max_degree must be an int or None.  prove_rigidity reads its levels
    off this sweep."""
    if max_degree is not None:
        _check_int("max_degree", max_degree)
    depth = a.top_degree if max_degree is None else max_degree
    if depth < 0:
        raise ValueError("max_degree must be nonnegative")
    connectivity_ok = a.graded_piece(0) == [a.unit] and not a.graded_piece(1)
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
        connectivity_ok=connectivity_ok,
        certificate=certificate,
        dimensions=dimensions,
        complete=certificate is not None or depth >= a.top_degree,
    )

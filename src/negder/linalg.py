"""Exact linear algebra over the rationals.

A matrix is a list of rows, each row a list of Fraction (or int) entries;
nullspace_basis also takes sparse {column: value} rows.  Every public
routine is pure: inputs are never mutated, results are fresh, and all
arithmetic is exact.  Kernels and spans come from one sparse elimination,
_eliminate, behind echelon and nullspace_basis.  The library takes an
int for an index, degree or rank (_check_int) and an int or a Fraction
for a value (_fold), and the sparse terms of an Element or a table entry
through _terms; text is read by fileformats alone.  _fold holds every
exact rational, here and in tables, Elements and maps, as an int where it
is integral and as a Fraction otherwise, so integer systems run on int
arithmetic.  _eliminate keeps an index from each non-pivot column to the
pivot rows that hold it, so a new pivot touches only those rows.  Dense
rref and the Bareiss rank are kept as independent oracles.
"""

import math
from fractions import Fraction


def dot(row, v):
    return sum((_fold(a) * _fold(b) for a, b in zip(row, v)), Fraction(0))


def mat_vec(m, v):
    return [dot(row, v) for row in m]


def rref(m):
    """Reduced row echelon form of m.

    Returns (reduced, rank, pivot_columns).  Pivot columns are strictly
    increasing, pivot entries are 1 with zeros above and below, so the
    output is the unique RREF of the row space, its entries Fractions.
    Values are taken as by _fold.  Degenerate shapes (no rows, no
    columns) are fine.
    """
    reduced = [[Fraction(_fold(x)) for x in row] for row in m]
    nrows = len(reduced)
    ncols = len(reduced[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if reduced[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        reduced[r], reduced[pivot_row] = reduced[pivot_row], reduced[r]
        lead = reduced[r][c]
        if lead != 1:
            reduced[r] = [x / lead for x in reduced[r]]
        # the rows are fresh copies: reduce them in place, over the pivot row's nonzeros
        nonzero = [(j, y) for j, y in enumerate(reduced[r]) if y]
        for i, row in enumerate(reduced):
            f = row[c]
            if i != r and f:
                for j, y in nonzero:
                    row[j] -= f * y
        pivots.append(c)
        r += 1
    return reduced, len(pivots), pivots


def _check_int(name, value):
    """value as an int; ValueError naming it unless it is a non-bool int."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, not {value!r}")
    return int(value)


def _fold(x):
    """The int or Fraction x as an int when it is integral, else as a
    Fraction, a non-integral Fraction as it is; ValueError for anything
    else, such as a str, a float or a bool."""
    if type(x) is not Fraction:
        if type(x) is int:
            return x
        if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
            raise ValueError(f"a value must be an int or a Fraction, not {x!r}")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _terms(mapping, name):
    """Fresh {int: value} of the nonzero terms of a mapping, each value
    held as _fold holds it, an int subclass key as a plain int.  The one
    reader of sparse terms, for Elements and table entries.  ValueError
    for a non-mapping, and for a key, called name, that is not an int
    where its term is nonzero; a zero term's key is not read."""
    try:
        items = mapping.items()
    except AttributeError:
        raise ValueError(f"a mapping {{{name}: coefficient}} is needed, "
                         f"not {mapping!r}") from None
    out = {}
    for k, c in items:
        if type(c) is not int:
            c = _fold(c)
        if c:
            out[k if type(k) is int else _check_int(name, k)] = c
    return out


def _nonzero(row):
    """Fresh {column: value} of the nonzero entries of a dense list or dict
    row, each value folded by _fold before a zero is dropped."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: y for c, x in items if (y := x if type(x) is int else _fold(x))}


def _subtract(row, f, other, skip):
    """row -= f * other in place, over every column of other but skip."""
    for j, y in other.items():
        if j != skip:
            x = row.get(j, 0) - f * y
            if x:
                row[j] = _fold(x) if type(x) is Fraction else x
            else:
                del row[j]


def echelon(rows):
    """Sparse exact elimination of {column: value} rows, left unchanged;
    zero values are dropped, so an all-zero row is skipped.  Returns
    {pivot column: row}, each row fully reduced with a leading 1 at its
    least column: the unique RREF of the row space, its values ints where
    integral, by _eliminate over _nonzero copies, so no row is an input."""
    return _eliminate(_nonzero(row) for row in rows)


def _eliminate(rows, ncols=None):
    """Exact elimination of fresh nonzero {column: value} rows, values as
    _fold holds them, which it reduces in place and keeps as pivot rows;
    returns {pivot column: row}, the RREF of the rows.  Given the number of
    columns ncols, it reads no row after the rank reaches it.

    holders maps each column that is not a pivot column to the pivot
    columns of the rows that hold it, so a new pivot is cleared from
    exactly the rows that hold it, with no scan of the others."""
    pivots = {}
    holders = {}
    for r in rows:
        # Pivot rows hold no other pivot column, so one subtraction per
        # pivot column of r clears it without refilling the others.
        for c in [c for c in r if c in pivots]:
            _subtract(r, r.pop(c), pivots[c], c)
        if not r:
            continue
        p = min(r)
        lead = r[p]
        if lead == -1:
            r = {c: -x for c, x in r.items()}
        elif lead != 1:
            r = {c: _fold(Fraction(x, lead)) for c, x in r.items()}
        # the index sets of the columns of r other than p: a row that
        # takes away a multiple of r keeps or loses only these
        held = {c: holders.setdefault(c, set()) for c in r if c != p}
        for q in holders.pop(p, ()):
            prow = pivots[q]
            _subtract(prow, prow.pop(p), r, p)
            for c, rows_at in held.items():
                if c in prow:
                    rows_at.add(q)
                else:
                    rows_at.discard(q)
        for rows_at in held.values():
            rows_at.add(p)
        pivots[p] = r
        if len(pivots) == ncols:
            break
    return pivots


def nullspace_basis(m, ncols=None):
    """Canonical kernel basis, read off the RREF of the system.

    Rows are dense lists or {column: value} dicts, from any iterable, and
    ncols is required unless m is a nonempty list of dense rows; zero
    rows and exact duplicates are skipped, and the distinct rows are
    eliminated by _eliminate as they are read.  Once their rank is ncols
    the kernel is zero, and no further row is read, so the rows may come
    from a generator that builds them on demand.  The basis is the one
    read off dense rref: one vector per free column f, in ascending order,
    with entry 1 at f, 0 at every other free column and the
    back-substituted pivot values elsewhere.

    Every vector is checked exactly against every distinct nonzero row, in
    time proportional to the nonzeros, and ArithmeticError is raised on a
    failure.  Vectors are dense lists, their values held as by _fold.
    """
    if ncols is None:
        if not isinstance(m, (list, tuple)) or not m or isinstance(m[0], dict):
            raise ValueError("ncols is required unless m is a nonempty list of dense rows")
        ncols = len(m[0])
    _check_int("ncols", ncols)
    # each row is copied once, by _nonzero; the frozen items of the
    # distinct rows outlive the elimination, which reduces the copies
    rows = set()

    def distinct():
        for row in m:
            r = _nonzero(row)
            if not r:
                continue
            if any(type(c) is not int or not 0 <= c < ncols for c in r):
                raise ValueError(f"a row has an entry outside columns 0..{ncols - 1}")
            items = frozenset(r.items())
            if items not in rows:
                rows.add(items)
                yield r

    pivots = _eliminate(distinct(), ncols)
    basis = {f: {f: 1} for f in range(ncols) if f not in pivots}
    for p, prow in pivots.items():
        for c, x in prow.items():
            if c != p:
                basis[c][p] = -x
    vectors = list(basis.values())
    # (vector number, entry) of the vectors nonzero at each column, so each
    # row meets only the vectors that share a column with it
    at = {}
    for k, v in enumerate(vectors):
        for c, x in v.items():
            at.setdefault(c, []).append((k, x))
    for items in rows:
        sums = {}
        for c, x in items:
            for k, y in at.get(c, ()):
                sums[k] = sums.get(k, 0) + x * y
        if any(sums.values()):
            raise ArithmeticError("a kernel vector fails a row of the system")
    return [[v.get(c, 0) for c in range(ncols)] for v in vectors]


def rank_fraction_free(m):
    """Rank via Bareiss fraction-free elimination.

    Rows, their values taken as by _fold, are scaled to integers, then
    eliminated in the two-step Bareiss scheme where every division by the
    previous pivot is exact.  This is an independent code path from rref
    and exists as a cross-check oracle.
    """
    if not m or not m[0]:
        return 0
    a = []
    for row in m:
        fr = [_fold(x) for x in row]
        scale = math.lcm(*(x.denominator for x in fr))
        a.append([int(x * scale) for x in fr])
    nrows, ncols = len(a), len(a[0])
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if a[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                num = a[r][c] * a[i][j] - a[i][c] * a[r][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("inexact Bareiss division")
                a[i][j] = q
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r

"""Finite-dimensional graded-commutative algebras over Q.

An algebra is a finite homogeneous basis plus a sparse structure-constant
table for the product.  Builders cover monomial presentations (truncated
polynomial generators in even degree, exterior generators in odd degree)
and tensor products with Koszul signs; monomial_basis gives the basis of a
presentation alone, for what reads only degrees.  The table is fixed at
construction, where its indices are checked, and callers read it through
a view whose entries are read-only too; validate() re-derives every axiom
from it, once per algebra, so no sign or degree rule is trusted without
being checkable.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import product as cartesian
from operator import mul
from types import MappingProxyType

from .linalg import _check_int, _fold, _iterated, _quote, _terms, echelon

# Characters that the structure-constant format reserves: no basis label
# holds one.
_RESERVED = frozenset("=+#")

# Largest structure-constant table that build_monomial_algebra or tensor
# allocates.  The largest bundled, tested or benchmarked presentation,
# CP399, has 80 200 entries; above the limit either builder raises
# ValueError before allocating.
MAX_TABLE_ENTRIES = 250_000


def _check_index(basis, i):
    if type(i) is not int:
        _check_int("basis index", i)
    if not 0 <= i < basis.dim:
        raise ValueError(f"basis index {_quote(i)} is outside 0..{basis.dim - 1}")


@dataclass(frozen=True)
class Generator:
    symbol: str
    degree: int
    truncation: int = 2


@dataclass(frozen=True)
class Presentation:
    """Monomial presentation.  Each generator g of degree d contributes
    powers 1, g, ..., g^(truncation-1); odd-degree generators square to
    zero and therefore must truncate at 2."""

    name: str
    generators: tuple[Generator, ...]


class Element:
    """Sparse rational linear combination of basis vectors.

    coeffs is a mapping {basis index: coefficient}, or None for zero; it
    is read by linalg._terms, as a table entry is, so zero coefficients
    are dropped, keys must be ints and values ints or Fractions, held as
    by _fold, and anything else, a non-mapping, a str, a float or a bool,
    raises ValueError.  Equality is coefficientwise.  Elements are
    algebra-agnostic; the product lives on GradedAlgebra.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {} if coeffs is None else _terms(coeffs, "Element key")

    def coeff(self, i):
        return self.coeffs.get(i, 0)

    def items(self):
        return sorted(self.coeffs.items())

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) + c
        return Element(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) - c
        return Element(out)

    def __neg__(self):
        return Element({i: -c for i, c in self.coeffs.items()})

    def __mul__(self, scalar):
        scalar = _fold(scalar)
        return Element({i: c * scalar for i, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __repr__(self):
        return f"Element({dict(self.items())!r})"


class GradedBasis:
    """A graded basis alone: labels, degrees, the unit index and a name,
    with the basis indexed by degree once: position[i] is the place of i
    in graded_piece(degrees[i]), its row or column in a block of a
    GradedLinearMap.  Labels and degrees are iterables, degrees and the
    unit ints; anything else raises ValueError, and so does a negative
    degree, naming its label, once the unit is checked: the algebras here
    are cohomology rings, graded in degrees 0 and up, and nothing
    downstream checks a degree's sign again.  GradedAlgebra adds the
    product table; monomial_basis returns a bare GradedBasis, so that what
    reads only labels and degrees builds no table."""

    def __init__(self, labels, degrees, unit, name=""):
        self.labels = list(_iterated(labels, "labels must be an iterable"))
        self.degrees = [d if type(d) is int else _check_int("degree", d)
                        for d in _iterated(degrees, "degrees must be an iterable of ints")]
        if len(self.labels) != len(self.degrees):
            raise ValueError(f"{len(self.labels)} labels but {len(self.degrees)} degrees")
        self.unit = unit if type(unit) is int else _check_int("unit", unit)
        if not 0 <= self.unit < len(self.labels):
            raise ValueError(f"unit {_quote(self.unit)} is not a basis index")
        self.name = name
        by_degree = {}
        self.position = []
        for i, d in enumerate(self.degrees):
            if d < 0:
                raise ValueError(f"basis label {_quote(self.labels[i])} has negative "
                                 f"degree {_quote(d)}")
            piece = by_degree.setdefault(d, [])
            self.position.append(len(piece))
            piece.append(i)
        self._by_degree = by_degree

    @property
    def dim(self):
        return len(self.labels)

    @property
    def top_degree(self):
        return max(self.degrees)

    def graded_piece(self, n):
        """Basis indices of the int degree n, ascending; empty list if none."""
        if type(n) is not int:
            _check_int("degree", n)
        return list(self._by_degree.get(n, []))


def _table_key(key):
    """The plain tuple (i, j) of ints that a table key names when it is a
    tuple subclass or its items are int subclasses other than bool.
    ValueError naming the table key otherwise: for a key that is no tuple
    of two items, such as a list, (0,) or (0, 0, 0), or one whose items
    are not ints, such as (0.0, 1), even where an equal key came before."""
    if not isinstance(key, tuple) or len(key) != 2:
        raise ValueError(f"table key must be a pair (i, j) of ints, not {_quote(key)}")
    return (_check_int("table key", key[0]), _check_int("table key", key[1]))


class _Products(Mapping):
    """A read-only view of a table whose entries are read-only too: each
    lookup wraps the entry in a types.MappingProxyType, and the keys and
    the length are the table's own.  The package's loops read the table
    itself, so no hot loop builds a proxy."""

    __slots__ = ("_table",)

    def __init__(self, table):
        self._table = table

    def __getitem__(self, key):
        return MappingProxyType(self._table[key])

    def __contains__(self, key):
        return key in self._table

    def __iter__(self):
        return iter(self._table)

    def __len__(self):
        return len(self._table)

    def __repr__(self):
        return f"products({self._table!r})"


class GradedAlgebra(GradedBasis):
    """Graded-commutative algebra given by labels, degrees, the unit index,
    and a structure-constant table.

    products maps an ordered index pair (i, j) to {k: coefficient}; pairs
    absent from the table multiply to zero.  It is a mapping, or an
    iterable of ((i, j), terms) pairs, each key a pair of ints, read in
    one pass: a pair sets its key, in its earlier place if it had one, and
    an empty entry removes it.  So the table holds the items of
    dict(pairs) with the empty entries dropped, in that order but for a
    key that an empty entry removed and a later pair set again, which
    comes last; that dict is never built, so a builder that streams its
    pairs holds one table, not two.  Each entry is read by linalg._terms
    into a fresh dict of its nonzero terms, int keys and values as _fold
    holds them: an int where integral, else a Fraction.  Each distinct
    input entry object is read once, and the keys that share it share its
    one fresh output entry, so table entries may be shared between keys.
    A key that is already a tuple of two ints is kept
    as it is.  Products that are neither a mapping nor an iterable, an
    item that is not a (key, terms) pair, a key that is not a tuple of two
    items, an entry that is not a mapping, a key or term index that is not
    an int, or a value that is neither an int nor a Fraction (a str, a
    float, a bool), raises ValueError naming it; so does a key or term
    index outside 0..dim-1, naming the key and the index.

    The table is held privately and products is a read-only property that
    returns one view of it, made at construction, whose entries are
    read-only views too (types.MappingProxyType): no key and no term can
    be set or deleted through it.  So every index names a basis element
    for the algebra's whole life and nothing downstream checks it again,
    and the algebra is fixed at construction, its basis as position,
    _by_degree and _elimination assume, its table as the verdict of
    validate() assumes: that verdict is worked out once, on the first
    call, and it is the one a fresh pass would give.  Indices are checked,
    axioms are not: degree, unit, commutativity and associativity
    violations stay representable for validate().
    """

    def __init__(self, labels, degrees, unit, products, name=""):
        super().__init__(labels, degrees, unit, name)
        table, dim = {}, self.dim
        # id of an input entry -> (that entry, its normalized form); holding
        # the entry keeps its id from being reused while the loop runs
        done = {}
        pairs = products.items() if hasattr(products, "items") else _iterated(
            products, "products must be a mapping or an iterable of ((i, j), terms) pairs")
        for item in pairs:
            try:
                key, terms = item
            except (TypeError, ValueError):
                raise ValueError(f"a table item must be a pair ((i, j), terms), "
                                 f"not {_quote(item)}") from None
            try:
                i, j = key
            except (TypeError, ValueError):
                i = j = None  # not a pair: _table_key names it
            if type(key) is not tuple or type(i) is not int or type(j) is not int:
                key = i, j = _table_key(key)
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"table key {_quote(key)} names "
                                 f"{_quote(j if 0 <= i < dim else i)}, outside 0..{dim - 1}")
            seen = done.get(id(terms))
            if seen is None:
                # checked here too, so that the error names the key
                if not hasattr(terms, "items"):
                    raise ValueError(f"table entry of {_quote(key)} must be a mapping "
                                     f"{{k: coefficient}}, not {_quote(terms)}")
                entry = _terms(terms, "term index")
                if entry and (min(entry) < 0 or max(entry) >= dim):
                    k = min(entry) if min(entry) < 0 else max(entry)
                    raise ValueError(f"table entry of {_quote(key)} names {_quote(k)}, "
                                     f"outside 0..{dim - 1}")
                seen = done[id(terms)] = (terms, entry)
            if seen[1]:
                table[key] = seen[1]
            else:
                table.pop(key, None)
        self._table = table
        self._view = _Products(table)

    @property
    def products(self):
        """The table as a read-only view, made once at construction: no key
        can be set or deleted through it, it cannot be assigned, and each
        entry it hands out is a read-only view of the entry
        (types.MappingProxyType), so no term can be set either."""
        return self._view

    @cached_property
    def _elimination(self):
        """(generator_indices, expansions), read off one echelon over the
        products of two positive-degree basis elements, computed once, on
        first use.  build_monomial_algebra fills this cache with the same
        pair from the exponent vectors, so no echelon runs for a
        presentation; parsed tables and tensor products run it.

        Each distinct product P[i, j] with |i|, |j| > 0 is a row, in
        ascending (i, j), plus a tag column of (i, j); a product whose
        entry, or whose single basis element, an earlier one had is
        skipped, since it adds no pivot.  Tags are numbered down from the
        last row, so a row that reduces to a relation among products pivots
        at its own tag, which no other row holds, and changes no earlier
        row.  The pivots at basis columns span A+ . A+, which lies in
        positive degrees, so the indices other than the unit that are not
        pivots are the rest of degree 0 and a complement of A+ . A+ in A+;
        with the unit they generate A, by induction on degree (graded
        Nakayama).  Each pivot row writes its index as a sum of products, a
        basis term c e_h of the row other than its pivot, a generator of
        the same degree, as the product term (unit, h): -c, since e_h =
        1 e_h by the unit laws.  On a connected algebra, degree 0 the unit
        line alone, the generators are the unit and the positive-degree
        non-pivots."""
        dim, degrees, table, unit = self.dim, self.degrees, self._table, self.unit
        keys = []
        seen, single = set(), set()  # ids of the entries of keys with |i|, |j| > 0
        for key in sorted(table):
            i, j = key
            terms = table[key]
            if id(terms) not in seen and degrees[i] > 0 and degrees[j] > 0:
                seen.add(id(terms))
                if len(terms) == 1:
                    if not single.isdisjoint(terms):
                        continue
                    single.update(terms)
                keys.append(key)
        top = dim + len(keys)
        out = {}
        for p, row in echelon([{**table[key], top - k: 1}
                               for k, key in enumerate(keys)]).items():
            if p < dim:
                out[p] = {**{keys[top - c]: x for c, x in row.items() if c >= dim},
                          **{(unit, c): -x for c, x in row.items() if c < dim and c != p}}
        return (unit,) + tuple(i for i in range(dim) if i != unit and i not in out), out

    @property
    def generator_indices(self):
        """Basis indices that generate the algebra, as _elimination gives
        them: the unit followed, ascending, by the other indices that are
        not pivots of the products e_i e_j with |i|, |j| > 0, so every other
        index of degree 0 among them.  For a monomial presentation they are
        the single-generator monomials, which build_monomial_algebra hands
        over with no echelon."""
        return self._elimination[0]

    @property
    def expansions(self):
        """Each basis index x outside generator_indices written through
        products, as _elimination reads it off: {x: {(i, j): c}} with
        e_x = sum c P[i, j], where i and j have positive degrees adding to
        |x|, or i is the unit and j a generator of x's degree, coefficients
        as echelon returns them, negated on the unit's terms.  For a
        monomial presentation each is the one term (g, x / g): +-1, g the
        letter of x of least index, from build_monomial_algebra."""
        return self._elimination[1]

    def basis_element(self, i):
        _check_index(self, i)
        return Element({i: 1})

    def multiply(self, u, v):
        """Bilinear extension of the table; ValueError on an index outside it."""
        for i in u.coeffs.keys() | v.coeffs.keys():
            _check_index(self, i)
        out = {}
        for i, cu in u.coeffs.items():
            for j, cv in v.coeffs.items():
                terms = self._table.get((i, j))
                if not terms:
                    continue
                cc = cu * cv
                for k, c in terms.items():
                    out[k] = out.get(k, 0) + cc * c
        return Element(out)

    def format_element(self, elt):
        if not elt:
            return "0"
        parts = []
        for i, c in elt.items():
            _check_index(self, i)
            if i == self.unit:
                parts.append(str(c))
            elif c == 1:
                parts.append(self.labels[i])
            elif c == -1:
                parts.append("-" + self.labels[i])
            else:
                parts.append(f"{c}*{self.labels[i]}")
        text = parts[0]
        for t in parts[1:]:
            text += " - " + t[1:] if t.startswith("-") else " + " + t
        return text

    def __eq__(self, other):
        if not isinstance(other, GradedAlgebra):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.degrees == other.degrees
            and self.unit == other.unit
            and self._table == other._table
        )

    def __repr__(self):
        tag = self.name or f"{self.dim} basis elements"
        return f"GradedAlgebra({tag}, top degree {self.top_degree})"

    def validate(self):
        """Check every axiom on the table; returns a list of violation strings,
        a fresh list on each call, of the verdict that _violations works out
        once per algebra: a caller that changes the list it got cannot
        change the next answer."""
        return list(self._violations)

    @cached_property
    def _violations(self):
        """The violations of every axiom on the table, worked out on first
        use; the algebra is fixed at construction, so they are the ones a
        fresh pass would give.

        It checks degree additivity of every table entry, both unit laws,
        graded commutativity products(j,i) = (-1)^(|i||j|) products(i,j) on
        the pairs the table names, and associativity, row by row in
        _associativity: exact on any table, corrupt ones included, in time
        that follows the table, its nonzero contributions and dim.
        Violations come in i, j, k order.

        The degree and commutativity checks are made in one walk over the
        keys.  The degree check compares |i| + |j| with the common degree
        of the entry's terms, worked out once per distinct entry; since no
        entry is empty, a common degree of None (mixed) or any other value
        means a term of the wrong degree.  Each mirror P[j,i] is compared
        directly with _mirror of P[i,j]: the entry, or its negation when
        |i| and |j| are both odd.  A violation's text is made only for the
        keys that fail.

        Associativity is decided on the decisive rows alone when every
        earlier check passes and degree 0 is exactly the unit line: the
        positive-degree indices that no one-term product c e_k = e_i e_j of
        two positive-degree elements reaches, every positive-degree index
        when no such product exists, and none when the unit is the whole
        basis.
        The left nucleus N = {x : (x y) z = x (y z) for all y, z} is a
        subspace that holds the unit, by the unit laws, and is closed under
        products: for g, h in N, ((g h) y) z = (g (h y)) z = g ((h y) z)
        = g (h (y z)) = (g h)(y z) (Schafer, An Introduction to
        Nonassociative Algebras, 1966).  Every other positive e_k is
        c^-1 e_i e_j with |i|, |j| < |k|, by degree additivity, so
        induction on degree puts every basis element in N once every triple
        (g, y, z) with g decisive associates; then every triple does.  The
        decisive rows are read off the table, with no elimination.  That
        pass leaves the unit's keys, (u, j) and (i, u), out of its index:
        the unit laws have passed by then, so every triple with the unit as
        i, j or k associates, and degree additivity keeps the unit out of
        every product of two non-unit elements, so no other triple loses a
        contribution.  When that pass finds a violation, or an earlier check
        failed, the pass runs over every row with every key, the unit's
        included, so the violations and their order are those of the full
        check: there a corrupt product such as b b = 1 carries the unit into
        other triples.
        """
        dim, degrees, labels = self.dim, self.degrees, self.labels
        table = self._table
        empty = {}
        facts = {}  # id of an entry -> its common degree, or None
        bad_degree, bad_sign = [], []
        u = self.unit
        for key, terms in table.items():
            entry = id(terms)
            if entry not in facts:
                common = {degrees[k] for k in terms}
                facts[entry] = common.pop() if len(common) == 1 else None
            i, j = key
            if facts[entry] != degrees[i] + degrees[j]:
                bad_degree.append(key)
            # A pair {i, j} with neither order in the table is zero both
            # ways; one with both is checked at i <= j.
            if i <= j:
                if table.get((j, i), empty) != _mirror(terms, degrees[i] & degrees[j] & 1):
                    bad_sign.append(key)
            elif (j, i) not in table:
                bad_sign.append((j, i))
        out = []
        for i, j in sorted(bad_degree):
            want = degrees[i] + degrees[j]
            for k in sorted(table[i, j]):
                if degrees[k] != want:
                    out.append(
                        f"degree additivity: {labels[i]} * {labels[j]} "
                        f"hits {labels[k]} of degree {degrees[k]}, expected {want}"
                    )
        for j in range(dim):
            if table.get((u, j), empty) != {j: 1}:
                out.append(f"unit law: 1 * {labels[j]} != {labels[j]}")
            if j != u and table.get((j, u), empty) != {j: 1}:
                out.append(f"unit law: {labels[j]} * 1 != {labels[j]}")
        for i, j in sorted(bad_sign):
            rel = "-" if degrees[i] & degrees[j] & 1 else ""
            out.append(f"graded commutativity: {labels[j]} * {labels[i]} "
                       f"!= {rel}({labels[i]} * {labels[j]})")
        # The decisive rows decide when every check so far passed; the full
        # pass, run on a violation, keeps the full list in its order (see
        # the docstring).
        if not out and self.graded_piece(0) == [u]:
            reached = {k for (i, j), terms in table.items()
                       if len(terms) == 1 and degrees[i] > 0 and degrees[j] > 0 for k in terms}
            if not self._associativity(set(range(dim)) - reached - {u}):
                return []
        return out + self._associativity(None)

    def _associativity(self, only):
        """Associativity violations of the rows i in only, or of every row
        when only is None, in i, j, k order.

        The two indexes come from _index at each call: rows[i][j] is the
        entry P[i,j], and by_m[m] lists (j, k, P[j,k][m]).  They leave out
        every key with the unit in it exactly when only is given, for
        validate()'s decisive pass, which needs none of them.  For each i,
        one dict {(j, k, t): v} holds (e_i e_j) e_k - e_i (e_j e_k) for all
        j and k at once: it adds sum_m P[i,j][m] P[m,k] through the rows m
        of row i's entries and subtracts sum_m P[j,k][m] P[i,m] through
        by_m of each m in row i, over nonzero contributions only.  A pair
        (j, k) is a violation exactly when some t is nonzero; every other
        triple is zero on both sides.
        """
        rows, by_m = _index(self._table, None if only is None else self.unit)
        out = []
        empty = {}
        labels = self.labels
        for i in sorted(rows.keys() if only is None else rows.keys() & only):
            row_i = rows[i]
            diff = {}
            for j, terms_ij in row_i.items():
                for m, c in terms_ij.items():
                    for k, terms in rows.get(m, empty).items():
                        for t, d in terms.items():
                            key = (j, k, t)
                            diff[key] = diff.get(key, 0) + c * d
            for m, terms in row_i.items():
                for j, k, c in by_m.get(m, ()):
                    for t, d in terms.items():
                        key = (j, k, t)
                        diff[key] = diff.get(key, 0) - c * d
            for j, k in sorted({key[:2] for key, v in diff.items() if v}):
                out.append(f"associativity: ({labels[i]} * {labels[j]}) * {labels[k]} "
                           f"!= {labels[i]} * ({labels[j]} * {labels[k]})")
        return out


def _index(table, skip):
    """The two indexes of a table that _associativity reads, leaving out
    every key with skip in it (none when skip is None): rows[i][j] is the
    entry P[i,j], and by_m[m] lists (j, k, P[j,k][m]) in key order."""
    rows, by_m = {}, {}
    for (i, j), terms in table.items():
        if i == skip or j == skip:
            continue
        row = rows.get(i)
        if row is None:
            row = rows[i] = {}
        row[j] = terms
        for m, c in terms.items():
            at = by_m.get(m)
            if at is None:
                by_m[m] = [(i, j, c)]
            else:
                at.append((i, j, c))
    return rows, by_m


def _mirror(terms, odd):
    """The entry P[j,i] that graded commutativity asks for, given terms =
    P[i,j]: terms itself, or a fresh negation when odd, that is when |i|
    and |j| are both odd.  The one statement of the rule, for validate(),
    the parser and the serializer."""
    return {k: -c for k, c in terms.items()} if odd else terms


def _legal_label(label):
    """Whether a basis line of the structure-constant format can carry
    label: a str of one word, not 0, with none of =+#, not starting with
    unit:.  The one label grammar: the parser and serializer test labels
    by it, and check_generator generator symbols."""
    return (type(label) is str and label.split() == [label] and label != "0"
            and _RESERVED.isdisjoint(label) and not label.startswith("unit:"))


def check_generator(g, seen, entries):
    """The presentation rules, the duplicate-symbol check and the table
    budget for one generator.  seen holds the symbols before g, and g's
    joins it; entries is the running count of table entries before g, 1
    for the first.  Returns the count times t(t+1)/2 for g's truncation t,
    and raises ValueError on a violation, a count over MAX_TABLE_ENTRIES
    included, so a caller stops at the generator that passes the budget.

    The symbol must pass _legal_label, so its monomial labels, which join
    symbols by * and ^, pass it too; and it must label its monomials apart
    from every other basis element: not 1, and no * or ^.  A factor over
    the budget counts as just over it, so the count stays small enough to
    print."""
    symbol = g.symbol
    if not _legal_label(symbol) or symbol == "1" or "*" in symbol or "^" in symbol:
        raise ValueError(f"illegal generator symbol {_quote(symbol)}")
    if symbol in seen:
        raise ValueError(f"duplicate generator symbol {_quote(symbol)}")
    seen.add(symbol)
    t = g.truncation
    if type(g.degree) is not int:
        _check_int(f"degree of generator {_quote(symbol)}", g.degree)
    if type(t) is not int:
        _check_int(f"truncation of generator {_quote(symbol)}", t)
    if g.degree < 1:
        raise ValueError(f"generator {_quote(symbol)} must have positive degree")
    if t < 2:
        raise ValueError(f"generator {_quote(symbol)} needs truncation >= 2")
    if g.degree % 2 and t != 2:
        raise ValueError(f"odd-degree generator {_quote(symbol)} must truncate at 2")
    entries *= t * (t + 1) // 2 if t <= MAX_TABLE_ENTRIES else MAX_TABLE_ENTRIES + 1
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(f"the presentation needs a table of at least {entries} "
                         f"entries, over the limit of {MAX_TABLE_ENTRIES}")
    return entries


def _monomial_label(exps, gens):
    parts = []
    for e, g in zip(exps, gens):
        if e == 1:
            parts.append(g.symbol)
        elif e > 1:
            parts.append(f"{g.symbol}^{e}")
    return "*".join(parts) if parts else "1"


def _sign_masks(exps, odd):
    """(letters, above) as bit masks, one pair per exponent vector, bit k
    for generator k: letters has bit k when generator k is odd and its
    exponent is odd; above has bit k when the odd letters of the generators
    after k are odd in number.  Sorting the word g^e . g^f back into
    generator order walks each odd letter of f past the odd letters of
    higher generators in e, so its Koszul sign is -1 exactly when
    letters(f) & above(e) has an odd number of bits."""
    letters, above = [], []
    for e in exps:
        mask = up = later = 0
        for k in range(len(odd) - 1, -1, -1):
            if later:
                up |= 1 << k
            if odd[k] and e[k] & 1:
                mask |= 1 << k
                later ^= 1
        letters.append(mask)
        above.append(up)
    return letters, above


def monomial_basis(p):
    """The graded basis of a monomial presentation, without its table.

    Each generator goes through check_generator first, which raises
    ValueError at the first one that breaks a rule or takes the table that
    build_monomial_algebra would allocate over MAX_TABLE_ENTRIES.  Basis:
    all exponent vectors below the truncations, sorted by (degree, exponent
    vector) and labelled by their monomials; the zero vector, the only one
    of degree 0, is the unit.  Returns a GradedBasis that also carries
    monomial_exponents, the exponent vector of each basis index.  Its cost
    is one step per basis element, whatever the size of the table.
    """
    seen, entries = set(), 1
    for g in _iterated(p.generators, "generators must be an iterable of Generators"):
        entries = check_generator(g, seen, entries)
    gens = p.generators
    weights = [g.degree for g in gens]
    pairs = sorted((sum(map(mul, e, weights)), e)
                   for e in cartesian(*(range(g.truncation) for g in gens)))
    exps = [e for _, e in pairs]
    basis = GradedBasis([_monomial_label(e, gens) for e in exps],
                        [d for d, _ in pairs], 0, name=p.name)
    basis.monomial_exponents = exps
    return basis


def build_monomial_algebra(p):
    """Build the algebra of a monomial presentation over monomial_basis(p),
    which checks each generator and the table budget with check_generator
    first.

    Products add exponents and pick up the Koszul sign of sorting odd
    factors.  Both are integer operations.  Each exponent vector has a code
    in mixed radix over the truncations, generator 0 the most significant
    digit, so codes ascend with the vectors; for a partner f with e + f
    below every truncation no digit carries, and the product's code is the
    sum of the two.  The sign comes from the bit masks of _sign_masks, which
    hold no bit when no generator has odd degree, so every product is then
    +1.  For each exponent vector e only the partners f with e + f below
    every truncation are visited, in ascending order of f, so the build
    costs one step per nonzero table entry; every other product is zero
    and left out of the table.  Every product is +e_k or -e_k, one shared
    entry per (k, sign), which the constructor normalizes once.  The pairs
    go to the constructor as they are made, so the table is built once:
    only the constructor's copy is ever held.  The result also carries
    monomial_exponents, the exponent vector of each basis index.

    The builder fills the algebra's _elimination cache from the exponent
    vectors, with no echelon: the unit, then the letters (the vectors of
    total 1) ascending; and each monomial x of two or more letters as the
    one product (g, x / g), g its letter of least index, with its +-1 read
    off the table.  That is what the echelon reads off this table, since
    (g, x / g) is the first key in sorted order that reaches x.

    The table has prod t(t+1)/2 entries over the truncations t; a
    presentation whose table would exceed MAX_TABLE_ENTRIES is rejected
    with ValueError before anything is allocated.
    """
    basis = monomial_basis(p)
    exps = basis.monomial_exponents
    gens = p.generators
    radix = [g.truncation for g in gens]
    # the place value of each generator's digit, generator 0 the highest
    weights, size = [], 1
    for t in reversed(radix):
        weights.append(size)
        size *= t
    weights.reverse()
    codes = [sum(map(mul, e, weights)) for e in exps]
    at = [0] * size  # code -> basis index
    for i, c in enumerate(codes):
        at[c] = i
    letters, above = _sign_masks(exps, [g.degree % 2 == 1 for g in gens])
    # one shared entry per (target, sign): +e_k and -e_k
    plus = [{k: 1} for k in range(len(exps))]
    minus = [{k: -1} for k in range(len(exps))]

    def pairs():
        for i, e in enumerate(exps):
            # the codes of the partners f of e, ascending
            box = [0]
            for x, t, w in zip(e, radix, weights):
                if t - x > 1:
                    box = [b + s for b in box for s in range(0, (t - x) * w, w)]
            code, up = codes[i], above[i]
            for b in box:
                j = at[b]
                yield (i, j), (minus if (letters[j] & up).bit_count() & 1
                               else plus)[at[code + b]]

    alg = GradedAlgebra(basis.labels, basis.degrees, basis.unit, pairs(), name=p.name)
    alg.monomial_exponents = exps
    # the echelon would pivot each row at x, and +-1 is its own inverse
    table = alg._table
    expansions = {}
    for x, e in enumerate(exps):
        if sum(e) > 1:
            g = min(at[w] for w, n in zip(weights, e) if n)
            y = at[codes[x] - codes[g]]
            expansions[x] = {(g, y): table[g, y][x]}
    alg._elimination = (basis.unit, *sorted(at[w] for w in weights)), expansions
    return alg


def tensor(a, b):
    """Tensor product with the Koszul sign rule
    (x (x) w) * (y (x) h) = (-1)^(|w| |y|) (x y) (x) (w h).

    Basis pairs are flattened row-major: (i, j) -> i * b.dim + j, so
    iterated tensors have literally identical structure constants under the
    flat index identification.  The product is named axb when both
    factors have names a and b, and unnamed otherwise.

    The table has one entry per pair of entries of a and b; when that
    product exceeds MAX_TABLE_ENTRIES, ValueError is raised before anything
    is allocated.
    """
    entries = len(a._table) * len(b._table)
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(f"the tensor product needs a table of {entries} entries, "
                         f"over the limit of {MAX_TABLE_ENTRIES}")
    dim_b = b.dim
    labels = [f"{la}⊗{lb}" for la in a.labels for lb in b.labels]
    degrees = [da + db for da in a.degrees for db in b.degrees]
    # each key and each target k1 * dim_b + k2 occurs once, and no product
    # of two nonzero terms is zero
    products = {}
    for (i1, i2), aterms in a._table.items():
        for (j1, j2), bterms in b._table.items():
            sign = -1 if (b.degrees[j1] * a.degrees[i2]) % 2 else 1
            products[i1 * dim_b + j1, i2 * dim_b + j2] = {
                k1 * dim_b + k2: sign * c1 * c2
                for k1, c1 in aterms.items() for k2, c2 in bterms.items()}
    name = f"{a.name}x{b.name}" if a.name and b.name else ""
    return GradedAlgebra(labels, degrees, a.unit * dim_b + b.unit, products, name=name)


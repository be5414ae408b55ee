"""Finite-dimensional graded-commutative algebras over Q.

An algebra is a finite homogeneous basis plus a sparse structure-constant
table for the product.  Builders cover monomial presentations (truncated
polynomial generators in even degree, exterior generators in odd degree)
and tensor products with Koszul signs; monomial_basis gives the basis of a
presentation alone, for what reads only degrees.  The table itself is
plain data; validate() re-derives every axiom from it, so no sign or
degree rule is trusted without being checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product as cartesian
from operator import add, mul

from .linalg import _check_int, _fold, _terms, echelon

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
        raise ValueError(f"basis index {i} is outside 0..{basis.dim - 1}")


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
        self.coeffs = _terms(coeffs, "Element key") if coeffs else {}

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
    unit ints; anything else raises ValueError.  GradedAlgebra adds the
    product table; monomial_basis returns a bare GradedBasis, so that what
    reads only labels and degrees builds no table."""

    def __init__(self, labels, degrees, unit, name=""):
        try:
            self.labels = list(labels)
        except TypeError:
            raise ValueError(f"labels must be an iterable, not {labels!r}") from None
        try:
            self.degrees = [d if type(d) is int else _check_int("degree", d) for d in degrees]
        except TypeError:
            raise ValueError(f"degrees must be an iterable of ints, not {degrees!r}") from None
        if len(self.labels) != len(self.degrees):
            raise ValueError(f"{len(self.labels)} labels but {len(self.degrees)} degrees")
        self.unit = unit if type(unit) is int else _check_int("unit", unit)
        if not 0 <= self.unit < len(self.labels):
            raise ValueError(f"unit {self.unit} is not a basis index")
        self.name = name
        by_degree = {}
        self.position = []
        for i, d in enumerate(self.degrees):
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
        raise ValueError(f"table key must be a pair (i, j) of ints, not {key!r}")
    return (_check_int("table key", key[0]), _check_int("table key", key[1]))


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
    one fresh output entry, so table entries may be shared between keys
    and are read-only: replace an entry, never mutate it in place.  A key
    that is already a tuple of two ints is kept as it is.  Products that
    are neither a mapping nor an iterable, an item that is not a (key,
    terms) pair, a key that is not a tuple of two items, an entry that is
    not a mapping, a key or term index that is not an int, or a value that
    is neither an int nor a Fraction (a str, a float, a bool), raises
    ValueError naming it.  The constructor deliberately does not check
    axioms, so corrupt tables stay representable for validate().
    """

    def __init__(self, labels, degrees, unit, products, name=""):
        super().__init__(labels, degrees, unit, name)
        table = {}
        # id of an input entry -> (that entry, its normalized form); holding
        # the entry keeps its id from being reused while the loop runs
        done = {}
        try:
            pairs = products.items() if hasattr(products, "items") else iter(products)
        except TypeError:
            raise ValueError(f"products must be a mapping or an iterable of "
                             f"((i, j), terms) pairs, not {products!r}") from None
        for item in pairs:
            try:
                key, terms = item
            except (TypeError, ValueError):
                raise ValueError(f"a table item must be a pair ((i, j), terms), "
                                 f"not {item!r}") from None
            try:
                i, j = key
            except (TypeError, ValueError):
                i = j = None  # not a pair: _table_key names it
            if type(key) is not tuple or type(i) is not int or type(j) is not int:
                key = _table_key(key)
            seen = done.get(id(terms))
            if seen is None:
                # checked here too, so that the error names the key
                if not hasattr(terms, "items"):
                    raise ValueError(f"table entry of {key} must be a mapping "
                                     f"{{k: coefficient}}, not {terms!r}")
                seen = done[id(terms)] = (terms, _terms(terms, "term index"))
            if seen[1]:
                table[key] = seen[1]
            else:
                table.pop(key, None)
        self.products = table

    @cached_property
    def generator_indices(self):
        """Basis indices that generate the algebra, read off the table alone.

        When degree 0 is exactly the unit line (and no degree is negative),
        these are the unit followed, ascending, by the positive-degree
        indices that are not pivot columns of echelon over the products
        e_i e_j with |i|, |j| > 0.  Those indices span a complement of
        A+ . A+, so by graded Nakayama they generate A together with the
        unit; for a monomial presentation they are the single-generator
        monomials.  Otherwise every basis index is returned.  Computed
        once, on first use, from the table as it is then.
        """
        return self._generators()

    def _generators(self):
        """generator_indices of the table as it is at this call.  An entry
        shared between keys is read once: the row space, and so every
        pivot, is that of the distinct entries.  A one-term entry c e_k
        puts e_k in the row space, so its k is a pivot column with no
        elimination.  The row space is the span of those e_k plus that of
        the longer entries with the columns k removed, which holds no
        column k; so the pivots are the columns k together with those of
        echelon over the longer entries, reduced so."""
        degrees = self.degrees
        if self.graded_piece(0) != [self.unit] or min(degrees) < 0:
            return tuple(range(self.dim))
        entries = {id(terms): terms for (i, j), terms in self.products.items()
                   if degrees[i] > 0 and degrees[j] > 0}.values()
        single = {k for terms in entries if len(terms) == 1 for k, c in terms.items() if c}
        pivots = single.union(echelon({k: c for k, c in terms.items() if k not in single}
                                      for terms in entries if len(terms) > 1))
        return (self.unit,) + tuple(i for i in range(self.dim)
                                    if degrees[i] > 0 and i not in pivots)

    @cached_property
    def expansions(self):
        """Each basis index x outside generator_indices written through the
        products g y of a non-unit generator g and a positive-degree basis
        element y: {x: (terms, rest)} with e_x = sum c P[g, y] over terms
        {(g, y): c} minus sum c e_h over rest {h: c}, each h a generator of
        x's degree, coefficients as echelon returns them.

        Read off echelon over the rows P[g, y] plus a tag column of (g, y).
        On an associative table the g y span A+ . A+, so the pivots at basis
        columns are the non-generators; ValueError is raised otherwise.  A
        product whose entry, or whose single basis element, an earlier one
        had is skipped: it adds no pivot.  Tags are numbered down from the
        last row, so a row that reduces to a relation among products
        pivots at its own tag, which no other row holds, and changes no
        earlier row.  Empty in the fallback, where every index is a
        generator; computed once, on first use, like generator_indices."""
        dim, degrees, gens = self.dim, self.degrees, self.generator_indices
        if len(gens) == dim:
            return {}
        keys = []
        seen = set()
        for g in gens[1:]:
            for y in range(dim):
                terms = self.products.get((g, y))
                if terms and degrees[y] > 0:
                    key = ("term", *terms) if len(terms) == 1 else ("entry", id(terms))
                    if key not in seen:
                        seen.add(key)
                        keys.append((g, y))
        top = dim + len(keys)
        out = {}
        for p, row in echelon([{**self.products[key], top - k: 1}
                               for k, key in enumerate(keys)]).items():
            if p < dim:
                out[p] = ({keys[top - c]: x for c, x in row.items() if c >= dim},
                          {c: x for c, x in row.items() if c < dim and c != p})
        if out.keys() | gens != set(range(dim)) or out.keys() & set(gens):
            raise ValueError("the products of the generators do not span the other "
                             "basis elements: validate() finds the fault")
        return out

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
                terms = self.products.get((i, j))
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
            and self.products == other.products
        )

    def __repr__(self):
        tag = self.name or f"{self.dim} basis elements"
        return f"GradedAlgebra({tag}, top degree {self.top_degree})"

    def validate(self):
        """Check every axiom on the table; returns a list of violation strings.

        First every key and term index of the table must lie in 0..dim-1.
        If any does not, exactly those violations are returned, in key
        order, since every later check indexes by them.  Otherwise it checks
        degree additivity of every table entry, both unit laws, graded
        commutativity products(j,i) = (-1)^(|i||j|) products(i,j) on the
        pairs the table names, and associativity, row by row in
        _associativity: exact on any table, corrupt ones included, in time
        that follows the table, its nonzero contributions and dim.
        Violations come in i, j, k order.

        The index, degree and commutativity checks are made in one walk
        over the keys, each worked out once per distinct entry (or entry,
        mirror and parity), so a key costs a lookup, and a violation's text
        is made only for the keys that fail.

        Associativity is decided on the rows i of the generators alone when
        every earlier check passes, degree 0 is exactly the unit line and
        no degree is negative.  The generators are those of
        generator_indices, computed afresh from the table as it is at this
        call, never read from the cache.  The left nucleus
        N = {x : (x y) z = x (y z) for all y, z} is a subspace that holds
        the unit, by the unit laws, and is closed under products: for
        g, h in N, ((g h) y) z = (g (h y)) z = g ((h y) z) = g (h (y z))
        = (g h)(y z) (Schafer, An Introduction to Nonassociative Algebras,
        1966).  By degree additivity and graded Nakayama, the generators
        and the unit produce all of A by products alone, without using
        associativity.  So when every triple (g, y, z) with g a generator
        associates, N is all of A and every triple does.  That pass leaves
        the unit's keys, (u, j) and (i, u), out of its index: the unit laws
        have passed by then, so every triple with the unit as i, j or k
        associates, and degree additivity keeps the unit out of every
        product of two non-unit elements, so no other triple loses a
        contribution.  When that pass finds a violation, or an earlier
        check failed, or every index is a generator, the pass runs over
        every row with every key, the unit's included, so the violations
        and their order are those of the full check: there a corrupt
        product such as b b = 1 carries the unit into other triples.
        """
        dim, degrees, labels = self.dim, self.degrees, self.labels
        table = self.products
        empty = {}
        facts = {}  # id of an entry -> (indices in range, common degree)
        agree = {}  # (id of P[i,j], id of P[j,i], parity) -> they agree
        bad_index, bad_degree, bad_sign = [], [], []
        u = self.unit
        for key, terms in table.items():
            entry = id(terms)
            fact = facts.get(entry)
            if fact is None:
                inside = all(0 <= k < dim for k in terms)
                common = {degrees[k] for k in terms} if inside else ()
                fact = facts[entry] = (inside, common.pop() if len(common) == 1 else None)
            inside, common = fact
            i, j = key
            if not (inside and 0 <= i < dim and 0 <= j < dim):
                bad_index.append(key)
                continue
            want = degrees[i] + degrees[j]
            if common != want and any(degrees[k] != want for k in terms):
                bad_degree.append(key)
            # A pair {i, j} with neither order in the table is zero both
            # ways; one with both is checked at i <= j.
            if i <= j:
                mirror = table.get((j, i), empty)
                odd = degrees[i] & degrees[j] & 1
                pair = (entry, id(mirror), odd)
                same = agree.get(pair)
                if same is None:
                    same = agree[pair] = mirror == (
                        {k: -c for k, c in terms.items()} if odd else terms)
                if not same:
                    bad_sign.append(key)
            elif terms and (j, i) not in table:
                bad_sign.append((j, i))
        if bad_index:
            return [f"basis index: table entry ({i}, {j}) names {x}, outside 0..{dim - 1}"
                    for i, j in sorted(bad_index)
                    for x in sorted({i, j, *table[i, j]}) if not 0 <= x < dim]
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
        # The generator rows decide when every check so far passed; the
        # full pass, run on a violation, keeps the full list in its order
        # (see the docstring).
        if not out:
            gens = self._generators()
            if len(gens) < dim and not self._associativity(set(gens) - {u}):
                return []
        return out + self._associativity(None)

    def _associativity(self, only):
        """Associativity violations of the rows i in only, or of every row
        when only is None, in i, j, k order.

        The two indexes come from _index at each call: rows[i][j] is the
        entry P[i,j], and by_m[m] lists (j, k, P[j,k][m]).  They leave out
        every key with the unit in it exactly when only is given, for
        validate()'s generator pass, which needs none of them.  For each i,
        one dict {(j, k, t): v} holds (e_i e_j) e_k - e_i (e_j e_k) for all
        j and k at once: it adds sum_m P[i,j][m] P[m,k] through the rows m
        of row i's entries and subtracts sum_m P[j,k][m] P[i,m] through
        by_m of each m in row i, over nonzero contributions only.  A pair
        (j, k) is a violation exactly when some t is nonzero; every other
        triple is zero on both sides.
        """
        rows, by_m = _index(self.products, None if only is None else self.unit)
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
        raise ValueError(f"illegal generator symbol {symbol!r}")
    if symbol in seen:
        raise ValueError(f"duplicate generator symbol {symbol!r}")
    seen.add(symbol)
    t = g.truncation
    if type(g.degree) is not int:
        _check_int(f"degree of generator {symbol!r}", g.degree)
    if type(t) is not int:
        _check_int(f"truncation of generator {symbol!r}", t)
    if g.degree < 1:
        raise ValueError(f"generator {symbol!r} must have positive degree")
    if t < 2:
        raise ValueError(f"generator {symbol!r} needs truncation >= 2")
    if g.degree % 2 and t != 2:
        raise ValueError(f"odd-degree generator {symbol!r} must truncate at 2")
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


def _sort_sign(first, second, odd):
    # Sign from sorting the word g^first . g^second back into generator
    # order: each odd letter of the second block walks past the odd letters
    # of higher generators in the first block, whose parity is later.
    t = later = 0
    for i in range(len(odd) - 1, -1, -1):
        if odd[i]:
            t ^= second[i] & later
            later ^= first[i] & 1
    return -1 if t else 1


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
    for g in p.generators:
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
    factors, which is worked out only when some generator has odd degree;
    otherwise every product is +1.  For each exponent vector e only the
    partners f with e + f below every truncation are visited, so the build
    costs one step per nonzero table entry; every other product is zero
    and left out of the table.  Every product is +e_k or -e_k, one shared
    entry per (k, sign), which the constructor normalizes once.  The pairs
    go to the constructor as they are made, so the table is built once:
    only the constructor's copy is ever held.  The result
    also carries monomial_exponents, the exponent vector of each basis index.

    The table has prod t(t+1)/2 entries over the truncations t; a
    presentation whose table would exceed MAX_TABLE_ENTRIES is rejected
    with ValueError before anything is allocated.
    """
    basis = monomial_basis(p)
    exps = basis.monomial_exponents
    gens = p.generators
    odd = [g.degree % 2 == 1 for g in gens]
    index_of = {e: i for i, e in enumerate(exps)}
    signed = any(odd)
    # one shared entry per (target, sign): +e_k, and -e_k when signs occur
    plus = [{k: 1} for k in range(len(exps))]
    minus = [{k: -1} for k in range(len(exps))] if signed else None

    def pairs():
        for i, e in enumerate(exps):
            for f in cartesian(*(range(g.truncation - x) for x, g in zip(e, gens))):
                k = index_of[tuple(map(add, e, f))]
                negative = signed and _sort_sign(e, f, odd) < 0
                yield (i, index_of[f]), minus[k] if negative else plus[k]

    alg = GradedAlgebra(basis.labels, basis.degrees, basis.unit, pairs(), name=p.name)
    alg.monomial_exponents = exps
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
    entries = len(a.products) * len(b.products)
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(f"the tensor product needs a table of {entries} entries, "
                         f"over the limit of {MAX_TABLE_ENTRIES}")
    dim_b = b.dim
    labels = [f"{la}⊗{lb}" for la in a.labels for lb in b.labels]
    degrees = [da + db for da in a.degrees for db in b.degrees]
    # each key and each target k1 * dim_b + k2 occurs once, and no product
    # of two nonzero terms is zero
    products = {}
    for (i1, i2), aterms in a.products.items():
        for (j1, j2), bterms in b.products.items():
            sign = -1 if (b.degrees[j1] * a.degrees[i2]) % 2 else 1
            products[i1 * dim_b + j1, i2 * dim_b + j2] = {
                k1 * dim_b + k2: sign * c1 * c2
                for k1, c1 in aterms.items() for k2, c2 in bterms.items()}
    name = f"{a.name}x{b.name}" if a.name and b.name else ""
    return GradedAlgebra(labels, degrees, a.unit * dim_b + b.unit, products, name=name)


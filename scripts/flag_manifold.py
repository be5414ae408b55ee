#!/usr/bin/env python3
"""Print the structure-constant table of the flag manifold Fl_N.

    python3 scripts/flag_manifold.py 4 > fl4.alg

H*(Fl_n; Q) = Q[x1..xn]/(e1..en) with |xi| = 2, the ei the elementary
symmetric polynomials.  Under lex order with x1 > ... > xn the ideal has
the Groebner basis hk(xk..xn), k = 1..n, hk the complete homogeneous
symmetric polynomial, whose leading term is xk^k.  So the standard
monomials, those with ak < k for every k, are a basis (n! of them, x1
never occurs), and a product is reduced by xk^k -> xk^k - hk(xk..xn)
until it is a sum of standard monomials; each step lowers its monomials
in lex order.  The generators are x2..xn.  Stdlib only: flag_manifold(n)
is imported by the tests.  An N whose table would pass MAX_TABLE_ENTRIES
(N >= 7) is refused with exit 2.
"""

import argparse
from itertools import combinations_with_replacement, product as cartesian

from negder import GradedAlgebra, serialize_structure_constants
from negder.algebra import MAX_TABLE_ENTRIES
from negder.fileformats import integer


def _tails(n):
    """tails[k] lists the exponent vectors of the monomials of
    hk(xk..xn) - xk^k, 0-based k: xk^j times a monomial of degree k+1-j
    in x(k+1)..xn, for j <= k."""
    tails = []
    for k in range(n):
        out = []
        for j in range(k + 1):
            for rest in combinations_with_replacement(range(k + 1, n), k + 1 - j):
                e = [0] * n
                e[k] = j
                for v in rest:
                    e[v] += 1
                out.append(tuple(e))
        tails.append(out)
    return tails


def _normal_form(e, tails, memo):
    """The standard form {exponents: coefficient} of the monomial with
    exponents e, tails as _tails makes them; memo maps each monomial
    reduced so far to its form, read-only.  A module-level function, so
    the memo is a plain dict in no reference cycle, freed with its caller."""
    form = memo.get(e)
    if form is None:
        k = next((k for k in range(len(e)) if e[k] > k), None)
        if k is None:
            form = {e: 1}
        else:
            # x^e = x^(e - (k+1) e_k) xk^(k+1), and xk^(k+1) = -(tail of hk)
            base = list(e)
            base[k] -= k + 1
            out = {}
            for t in tails[k]:
                for m, c in _normal_form(tuple(map(sum, zip(base, t))), tails, memo).items():
                    out[m] = out.get(m, 0) - c
            form = {m: c for m, c in out.items() if c}
        memo[e] = form
    return form


def _label(e):
    parts = [f"x{k + 1}" + (f"^{a}" if a > 1 else "") for k, a in enumerate(e) if a]
    return "*".join(parts) or "1"


def flag_manifold(n):
    """H*(Fl_n; Q) as a GradedAlgebra over the standard monomials, sorted
    by (degree, exponents); the unit is index 0.  ValueError, before
    the basis is built, when the table would pass MAX_TABLE_ENTRIES."""
    if n < 1:
        raise ValueError("N must be at least 1")
    # a pair whose exponents add to a standard monomial has it as product,
    # a nonzero entry; with (k+1)(k+2)/2 such pairs at each 0-based k,
    # their count bounds the table's from below, and is at least n!
    entries = 1
    for k in range(n):
        entries *= (k + 1) * (k + 2) // 2
        if entries > MAX_TABLE_ENTRIES:
            raise ValueError(f"Fl{n} needs a table of at least {entries} entries, "
                             f"over the limit of {MAX_TABLE_ENTRIES}")
    basis = sorted((2 * sum(e), e) for e in cartesian(*(range(k + 1) for k in range(n))))
    index = {e: i for i, (_, e) in enumerate(basis)}

    def pairs():
        tails, memo = _tails(n), {}
        entries = {}  # exponents of the product -> its one shared entry
        for i, (_, a) in enumerate(basis):
            for j, (_, b) in enumerate(basis):
                e = tuple(map(sum, zip(a, b)))
                if e not in entries:
                    entries[e] = {index[m]: c for m, c in _normal_form(e, tails, memo).items()}
                if entries[e]:
                    yield (i, j), entries[e]

    # the pairs go to the constructor as they are made, so only its copy
    # of the table is ever held
    return GradedAlgebra([_label(e) for _, e in basis], [d for d, _ in basis], 0,
                         pairs(), name=f"Fl{n}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=integer, help="the N of Fl_N, at least 1")
    args = parser.parse_args()
    try:
        algebra = flag_manifold(args.n)
    except ValueError as exc:
        parser.error(str(exc))
    print(serialize_structure_constants(algebra), end="")


if __name__ == "__main__":
    main()

"""Shared builders and the dense kernel oracle for the test suite.

These construct the standard small algebras directly from presentations,
independently of the bundled corpus files, so the builders themselves are
under test whenever a test module uses them.
"""

from fractions import Fraction

from negder import Generator, Presentation, build_monomial_algebra
from negder.linalg import rref


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


def point():
    """The one-point algebra Q."""
    return build_monomial_algebra(Presentation("pt", ()))


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

"""Torus splitting rigidity machinery.

Everything here works inside a product model: the base algebra tensored
with an exterior algebra on torus classes i1..is of degree 1.  A candidate
pullback is determined by one coefficient map per nonempty subset S of
torus coordinates,

    f(u) = u  +  sum_S  lambda_S(u) . iota_S,

and f is an algebra map iff the multiplicativity residual below is empty.
The total algebra is flattened torus-factor-major, so every sign in a
residual is produced by the verified tensor product table: the torus
monomial of a left factor walks past the base part of a right factor.
With that convention a single component at subset S is multiplicative
exactly when it satisfies the Koszul Leibniz law, which is what the
level-by-level prover exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .algebra import (Element, Generator, Presentation, _check_index,
                      build_monomial_algebra, tensor)
from .derivations import GradedLinearMap, check_class_h
from .derivations import derivation_space  # noqa: F401  perfbench/spans.py patches this name
from .linalg import _check_int, _items, _iterated, _quote


def torus_exterior(s):
    """Exterior algebra on s torus generators i1..is, each of degree 1;
    ValueError when s is negative."""
    s = _check_int("s", s)
    if s < 0:
        raise ValueError("torus rank must be nonnegative")
    gens = tuple(Generator(f"i{j}", 1, 2) for j in range(1, s + 1))
    return build_monomial_algebra(Presentation(f"T{s}" if s else "pt", gens))


class KunnethModel:
    """Product model of base x torus.

    total is the tensor algebra with the torus factor first, flattened
    row-major, so the basis pair (subset S, base index i) sits at flat
    index torus_index(S) * base.dim + i.  A subset is given by its 1-based
    torus coordinates, in any order (see _subset).
    """

    def __init__(self, base, torus_rank):
        _check_int("torus_rank", torus_rank)
        self.base = base
        self.torus_rank = torus_rank
        self.torus = torus_exterior(torus_rank)
        self.total = tensor(self.torus, base)
        subset_of = {}
        index_of = {}
        for idx, exps in enumerate(self.torus.monomial_exponents):
            subset = tuple(j + 1 for j, e in enumerate(exps) if e)
            subset_of[idx] = subset
            index_of[subset] = idx
        self._subset_of_torus_index = subset_of
        self._torus_index_of_subset = index_of
        self.nonempty_subsets = sorted(
            (s for s in index_of if s), key=lambda s: (len(s), s))

    def total_index(self, base_index, subset):
        _check_index(self.base, base_index)
        key = _subset(subset, self.torus_rank)
        return self._torus_index_of_subset[key] * self.base.dim + base_index

    def split_index(self, t):
        _check_index(self.total, t)
        return t % self.base.dim, self._subset_of_torus_index[t // self.base.dim]


def _subset(subset, torus_rank):
    """The torus coordinates of subset as a sorted tuple; ValueError naming
    subset unless it is an iterable of ints in 1..torus_rank with no
    repeat."""
    coordinates = _iterated(subset, "a subset must be an iterable of torus coordinates")
    key = tuple(sorted(_check_int("subset coordinate", x) for x in coordinates))
    if len(set(key)) != len(key):
        raise ValueError(f"repeated coordinate in subset {_quote(subset)}")
    if key and (key[0] < 1 or key[-1] > torus_rank):
        raise ValueError(f"subset {_quote(subset)} is not within 1..{_quote(torus_rank)}")
    return key


class LambdaFamily:
    """Coefficient maps of a candidate pullback, keyed by nonempty subsets
    of torus coordinates 1..torus_rank.  The empty subset acts as the
    identity and is never stored; zero component maps are dropped.

    A component's shift must match the parity of -|S| so the Koszul
    bookkeeping in the total algebra is coherent; the degree-preserving
    pullback case is shift = -|S| exactly.  torus_rank must be an int,
    components a mapping or None, every subset pass _subset and every
    component be a GradedLinearMap.
    """

    def __init__(self, torus_rank, components=None):
        self.torus_rank = _check_int("torus_rank", torus_rank)
        comps = {}
        for subset, m in _items({} if components is None else components,
                                "components must be a mapping {subset: GradedLinearMap}"):
            key = _subset(subset, torus_rank)
            if not key:
                raise ValueError("the empty subset is implicitly the identity")
            if not isinstance(m, GradedLinearMap):
                raise ValueError(f"component at {_quote(key)} must be a GradedLinearMap, "
                                 f"not {type(m).__name__}")
            if (m.shift + len(key)) % 2:
                raise ValueError(
                    f"component at {_quote(key)} has shift {_quote(m.shift)}, "
                    f"which differs in parity from -{len(key)}")
            if not m.is_zero():
                comps[key] = m
        self.components = comps

    def component(self, subset):
        return self.components.get(_subset(subset, self.torus_rank))


def pullback_expand(model, fam, u):
    """Element of the total algebra: u on the empty subset plus each
    component's image on its torus monomial; u must lie in the base."""
    if fam.torus_rank != model.torus_rank:
        raise ValueError("family and model torus ranks differ")
    dim_b = model.base.dim
    out = {}
    offset = model._torus_index_of_subset[()] * dim_b
    for i, c in u.coeffs.items():
        _check_index(model.base, i)
        out[offset + i] = c
    for subset in sorted(fam.components):
        img = fam.components[subset].apply(model.base, u)
        offset = model._torus_index_of_subset[subset] * dim_b
        for t, c in img.coeffs.items():
            out[offset + t] = out.get(offset + t, 0) + c
    return Element(out)


class Violation(NamedTuple):
    left: int
    right: int
    subset: tuple
    defect: Element


def multiplicativity_residual(model, fam):
    """Defect of pullback multiplicativity on every ordered base pair.

    Expands f(e_i e_j) - f(e_i) f(e_j) in the total algebra and reports
    each nonzero torus-monomial coefficient as a Violation carrying an
    Element of the base.  Empty iff the family is an algebra map on the
    basis, hence by bilinearity an algebra map.
    """
    base = model.base
    expanded = [pullback_expand(model, fam, base.basis_element(i))
                for i in range(base.dim)]
    out = []
    for i in range(base.dim):
        ei = base.basis_element(i)
        for j in range(base.dim):
            product = base.multiply(ei, base.basis_element(j))
            diff = (pullback_expand(model, fam, product)
                    - model.total.multiply(expanded[i], expanded[j]))
            if not diff:
                continue
            by_subset = {}
            for t, c in diff.coeffs.items():
                b, subset = model.split_index(t)
                by_subset.setdefault(subset, {})[b] = c
            for subset in sorted(by_subset, key=lambda s: (len(s), s)):
                out.append(Violation(i, j, subset, Element(by_subset[subset])))
    return out


@dataclass
class CharSubspace:
    """Graded subspace carrying the characteristic data relevant to a
    bundle of the given rank: the 4i ladder below the rank plus the top
    entry (the rank itself when even, else 4 * floor(rank / 2)).  Rank 1
    degenerates to the degree-0 line."""

    rank: int
    degrees: tuple[int, ...]
    basis_indices: dict[int, tuple[int, ...]]
    dimension: int


def char_subspace(base, rank):
    """The CharSubspace of a bundle of the given rank over base, which
    may be any GradedBasis: only its degrees are read.  rank must be an
    int."""
    _check_int("rank", rank)
    if rank < 1:
        raise ValueError("rank must be at least 1")
    degs = {4 * i for i in range(1, (rank - 1) // 2 + 1)}
    degs.add(rank if rank % 2 == 0 else 4 * (rank // 2))
    degrees = tuple(sorted(degs))
    basis_indices = {n: tuple(base.graded_piece(n)) for n in degrees}
    dimension = sum(len(v) for v in basis_indices.values())
    return CharSubspace(rank, degrees, basis_indices, dimension)


@dataclass
class LevelRecord:
    level: int
    dimension: int
    certificate: GradedLinearMap | None


@dataclass
class ProofTrace:
    torus_rank: int
    level_cap: int
    levels: list[LevelRecord]
    established: bool
    failed_level: int | None

    @classmethod
    def from_verdict(cls, base, verdict, torus_rank):
        """The proof for base x T^torus_rank: level k is the sweep's degree -k."""
        cap = level_cap(base, torus_rank)
        levels = []
        for k in range(1, cap + 1):
            if -k not in verdict.dimensions:
                raise ValueError(f"the sweep stops above level {k}")
            dim = verdict.dimensions[-k]
            levels.append(LevelRecord(k, dim, verdict.certificate[1] if dim else None))
            if dim:
                return cls(torus_rank, cap, levels, False, k)
        return cls(torus_rank, cap, levels, True, None)


def level_cap(base, torus_rank):
    """min(torus rank, top degree): higher levels are empty for degree
    reasons.  torus_rank must be an int."""
    _check_int("torus_rank", torus_rank)
    if torus_rank < 0:
        raise ValueError("torus rank must be nonnegative")
    return min(torus_rank, base.top_degree)


def prove_rigidity(base, torus_rank):
    """Level-by-level splitting-rigidity proof for base x torus.

    Once every component on smaller subsets vanishes, the multiplicativity
    equations at level k reduce, subset by subset, to the Leibniz law at
    degree -k.  An empty derivation space therefore forces that level to
    zero and the induction climbs; a nonzero space stops the run with its
    first basis vector as certificate: level k is the class-H sweep at -k.

    "Not established" means this criterion failed at some level, not that
    a splitting obstruction was produced.
    """
    verdict = check_class_h(base, level_cap(base, torus_rank))
    return ProofTrace.from_verdict(base, verdict, torus_rank)

from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import (levels_with_unknowns, point, presentations, projective_space,
                      rigidity_by_levels, sphere, torus)
from negder import (Element, GradedLinearMap, KunnethModel, LambdaFamily, ProofTrace,
                    build_monomial_algebra, char_subspace, check_class_h, corpus,
                    derivation_space, is_derivation, multiplicativity_residual,
                    prove_rigidity, pullback_expand, tensor, torus_exterior)
from negder.linalg import nullspace_basis


# --- Kunneth model ---

def test_model_trivial_torus_reproduces_base():
    cp2 = projective_space(2)
    model = KunnethModel(cp2, 0)
    assert model.total.degrees == cp2.degrees
    assert model.total.products == cp2.products
    assert model.total_index(1, ()) == 1


def test_model_dimensions_and_index_maps():
    cp2 = projective_space(2)
    model = KunnethModel(cp2, 2)
    assert model.total.dim == cp2.dim * 4
    assert not model.total.validate()
    for i in range(cp2.dim):
        for subset in [(), (1,), (2,), (1, 2)]:
            t = model.total_index(i, subset)
            assert model.split_index(t) == (i, subset)
    assert model.nonempty_subsets == [(1,), (2,), (1, 2)]


@pytest.mark.parametrize("index", [5, -1])
def test_model_index_maps_reject_indices_outside_the_basis(index):
    # s3 has dim 2 and s3 x T1 has dim 4: neither 5 nor -1 names a basis
    # element of either, and each used to come back as some other index
    model = KunnethModel(sphere(3), 1)
    with pytest.raises(ValueError, match=f"basis index {index} is outside 0..1"):
        model.total_index(index, ())
    with pytest.raises(ValueError, match=f"basis index {index} is outside 0..3"):
        model.split_index(index)
    with pytest.raises(ValueError, match="basis index 99 is outside 0..3"):
        model.split_index(99)


def test_pullback_expand_rejects_indices_outside_the_base():
    # with the trivial family, index 3 of s3 used to land on total index 3,
    # which is x (x) i1
    s3 = sphere(3)
    model = KunnethModel(s3, 1)
    for fam in (LambdaFamily(1), LambdaFamily(1, {(1,): derivation_space(s3, -3)[0]})):
        with pytest.raises(ValueError, match="basis index 3 is outside 0..1"):
            pullback_expand(model, fam, Element({3: 1}))


def test_pullback_expand_rejects_a_family_of_another_torus_rank():
    s3 = sphere(3)
    with pytest.raises(ValueError, match="^family and model torus ranks differ$"):
        pullback_expand(KunnethModel(s3, 1), LambdaFamily(2), Element({0: 1}))


def test_model_refuses_a_negative_torus_rank_through_torus_exterior():
    # the model leaves the sign of its rank to torus_exterior
    with pytest.raises(ValueError, match="^torus rank must be nonnegative$"):
        KunnethModel(sphere(3), -1)


@pytest.mark.parametrize("subset", [(3,), (0,), (1, 1), (1.0,), (True,)])
def test_model_total_index_rejects_a_subset_outside_the_torus(subset):
    # each used to raise a bare KeyError, (1.0,) and (True,) to find (1,)
    model = KunnethModel(sphere(3), 1)
    with pytest.raises(ValueError, match=r"subset|coordinate") as info:
        model.total_index(0, subset)
    assert repr(subset[0]) in str(info.value)


def test_a_subset_is_one_set_in_any_order():
    # on s3 x T2, (2, 1) used to raise KeyError in total_index, although
    # LambdaFamily took it as (1, 2)
    model = KunnethModel(sphere(3), 2)
    assert model.total_index(1, (2, 1)) == model.total_index(1, (1, 2))
    assert model.split_index(model.total_index(1, [2, 1])) == (1, (1, 2))
    cp2 = projective_space(2)
    theta = GradedLinearMap.from_images(cp2, -2, {1: cp2.basis_element(0)})
    fam = LambdaFamily(2, {(2, 1): theta})
    assert fam.components == {(1, 2): theta}
    assert fam.component((2, 1)) is fam.component([1, 2]) is theta
    for subset in ((3,), (1, 1), ("1",)):
        for call in (lambda: fam.component(subset),
                     lambda: LambdaFamily(2, {subset: theta})):
            with pytest.raises(ValueError, match=r"subset|coordinate"):
                call()


def test_torus_classes_anticommute_in_total():
    model = KunnethModel(projective_space(2), 2)
    t1 = model.total.basis_element(model.total_index(0, (1,)))
    t2 = model.total.basis_element(model.total_index(0, (2,)))
    t12 = model.total_index(0, (1, 2))
    assert model.total.multiply(t1, t2) == Element({t12: 1})
    assert model.total.multiply(t2, t1) == Element({t12: -1})
    assert not model.total.multiply(t1, t1)


# --- lambda families ---

def test_family_drops_zero_components():
    fam = LambdaFamily(2, {(1,): GradedLinearMap(-1), (2,): GradedLinearMap(-1)})
    assert not fam.components
    assert fam.component((1,)) is None


def test_family_rejects_bad_subsets():
    theta = GradedLinearMap(-1, {1: [[1]]})
    with pytest.raises(ValueError):
        LambdaFamily(1, {(): theta})
    with pytest.raises(ValueError):
        LambdaFamily(1, {(2,): theta})
    with pytest.raises(ValueError):
        LambdaFamily(2, {(1, 1): theta})


def test_family_rejects_a_component_that_is_not_a_map():
    for value in ("x", None, [[1]], {1: [[1]]}):
        with pytest.raises(ValueError,
                           match=r"^component at \(1,\) must be a GradedLinearMap, not \w+$"):
            LambdaFamily(1, {(1,): value})
    with pytest.raises(ValueError,
                       match=r"^component at \(1, 2\) must be a GradedLinearMap, not str$"):
        LambdaFamily(2, {(2, 1): "x"})


def test_family_rejects_shift_parity_mismatch():
    cp2 = projective_space(2)
    bad = GradedLinearMap.from_images(cp2, -2, {1: cp2.basis_element(0)})
    with pytest.raises(ValueError, match="parity"):
        LambdaFamily(1, {(1,): bad})
    # an odd shift at a singleton subset is coherent even when not -1
    s3 = sphere(3)
    theta = derivation_space(s3, -3)[0]
    LambdaFamily(1, {(1,): theta})


# --- pullback expansion ---

def test_pullback_of_unit_is_unit():
    s3 = sphere(3)
    model = KunnethModel(s3, 1)
    fam = LambdaFamily(1, {(1,): derivation_space(s3, -3)[0]})
    out = pullback_expand(model, fam, s3.basis_element(0))
    assert out == Element({model.total_index(0, ()): 1})


def test_pullback_expansion_of_sphere_class():
    s3 = sphere(3)
    model = KunnethModel(s3, 1)
    theta = derivation_space(s3, -3)[0]
    fam = LambdaFamily(1, {(1,): theta})
    out = pullback_expand(model, fam, s3.basis_element(1))
    assert out == Element({model.total_index(1, ()): 1,
                           model.total_index(0, (1,)): 1})


def test_trivial_family_embeds_along_empty_subset():
    cp2 = projective_space(2)
    model = KunnethModel(cp2, 3)
    fam = LambdaFamily(3)
    u = cp2.basis_element(1) + 7 * cp2.basis_element(2)
    out = pullback_expand(model, fam, u)
    assert out == Element({model.total_index(1, ()): 1,
                           model.total_index(2, ()): 7})


# --- multiplicativity residual ---

def test_trivial_family_is_multiplicative_everywhere():
    for alg in (projective_space(4), sphere(6), torus(3)):
        model = KunnethModel(alg, 2)
        assert multiplicativity_residual(model, LambdaFamily(2)) == []


def test_koszul_derivation_at_level_one_is_multiplicative():
    s3 = sphere(3)
    model = KunnethModel(s3, 1)
    theta = derivation_space(s3, -3)[0]
    assert multiplicativity_residual(model, LambdaFamily(1, {(1,): theta})) == []


def test_derivation_at_matching_level_is_multiplicative():
    # a component of shift -|S| that satisfies Leibniz is always multiplicative
    t2 = torus(2)
    model = KunnethModel(t2, 3)
    for theta in derivation_space(t2, -1):
        for subset in [(1,), (2,), (3,)]:
            fam = LambdaFamily(3, {subset: theta})
            assert multiplicativity_residual(model, fam) == []
    s3 = sphere(3)
    model3 = KunnethModel(s3, 3)
    theta3 = derivation_space(s3, -3)[0]
    fam3 = LambdaFamily(3, {(1, 2, 3): theta3})
    assert multiplicativity_residual(model3, fam3) == []


def test_non_derivation_component_leaves_residual():
    t2 = torus(2)
    model = KunnethModel(t2, 1)
    broken = GradedLinearMap.from_images(t2, -1, {3: t2.basis_element(1)})
    assert is_derivation(t2, broken) != []
    fam = LambdaFamily(1, {(1,): broken})
    residual = multiplicativity_residual(model, fam)
    assert residual != []
    # the residual is exactly the multiplicativity defect of the expansion
    for violation in residual:
        u = pullback_expand(model, fam, t2.basis_element(violation.left))
        v = pullback_expand(model, fam, t2.basis_element(violation.right))
        produced = model.total.multiply(u, v)
        wanted = pullback_expand(
            model, fam,
            t2.multiply(t2.basis_element(violation.left),
                        t2.basis_element(violation.right)))
        assert produced != wanted


def test_residual_empty_means_multiplicative_on_all_pairs():
    s3 = sphere(3)
    model = KunnethModel(s3, 1)
    fam = LambdaFamily(1, {(1,): derivation_space(s3, -3)[0]})
    assert multiplicativity_residual(model, fam) == []
    for i in range(s3.dim):
        for j in range(s3.dim):
            u = pullback_expand(model, fam, s3.basis_element(i))
            v = pullback_expand(model, fam, s3.basis_element(j))
            prod = s3.multiply(s3.basis_element(i), s3.basis_element(j))
            assert model.total.multiply(u, v) == pullback_expand(model, fam, prod)


# --- characteristic subspace ---

def test_char_degrees_on_projective_plane():
    cp2 = projective_space(2)
    assert char_subspace(cp2, 2).degrees == (2,)
    assert char_subspace(cp2, 2).dimension == 1
    assert char_subspace(cp2, 3).degrees == (4,)
    assert char_subspace(cp2, 4).degrees == (4,)
    assert char_subspace(cp2, 4).dimension == 1


def test_char_degrees_merge_duplicates():
    cp4 = projective_space(4)
    char = char_subspace(cp4, 5)
    assert char.degrees == (4, 8)
    assert char.dimension == 2
    assert char.basis_indices == {4: (2,), 8: (4,)}


def test_char_rank_one_is_degree_zero():
    char = char_subspace(projective_space(2), 1)
    assert char.degrees == (0,)
    assert char.basis_indices == {0: (0,)}


def test_char_lists_empty_pieces():
    s3 = sphere(3)
    char = char_subspace(s3, 4)
    assert char.degrees == (4,)
    assert char.dimension == 0


def test_char_degree_formula():
    cp4 = projective_space(4)
    for k in range(1, 10):
        degs = set(char_subspace(cp4, k).degrees)
        ladder = {4 * i for i in range(1, (k - 1) // 2 + 1)}
        extra = {k} if k % 2 == 0 else {4 * (k // 2)}
        assert degs == ladder | extra


def test_char_growth_under_even_tensor():
    cp2 = projective_space(2)
    prod = tensor(cp2, sphere(4))
    for k in (2, 3, 4, 5):
        small = char_subspace(cp2, k)
        big = char_subspace(prod, k)
        assert big.degrees == small.degrees
        for n in small.degrees:
            assert len(big.basis_indices[n]) >= len(small.basis_indices[n])


# --- the prover ---

def test_rigidity_established_on_projective_plane():
    cp2 = projective_space(2)
    for s in range(1, 5):
        trace = prove_rigidity(cp2, s)
        assert trace.established
        assert trace.failed_level is None
        assert trace.level_cap == min(s, 4)
        assert [rec.dimension for rec in trace.levels] == [0] * trace.level_cap


def test_rigidity_fails_on_odd_sphere_at_top_level():
    trace = prove_rigidity(sphere(3), 3)
    assert not trace.established
    assert trace.failed_level == 3
    assert [rec.dimension for rec in trace.levels] == [0, 0, 1]
    cert = trace.levels[-1].certificate
    assert cert.blocks == {3: [[1]]}
    assert trace.levels[0].certificate is None


def test_rigidity_level_cap_protects_low_top_degree():
    trace = prove_rigidity(sphere(3), 2)
    assert trace.established  # levels 1 and 2 are empty for degree reasons
    trace = prove_rigidity(point(), 5)
    assert trace.established
    assert trace.levels == []


def test_prove_rigidity_rejects_negative_torus_rank():
    with pytest.raises(ValueError, match="nonnegative"):
        prove_rigidity(projective_space(2), -1)


@pytest.mark.parametrize("s", [-1, -3])
def test_torus_exterior_rejects_a_negative_rank(s):
    with pytest.raises(ValueError, match="torus rank must be nonnegative"):
        torus_exterior(s)


def test_rank_arguments_must_be_ints():
    s3 = sphere(3)
    for value in (2.5, 3.0, "3", None, True):
        with pytest.raises(ValueError, match="^torus_rank must be an int"):
            prove_rigidity(s3, value)
        with pytest.raises(ValueError, match="^torus_rank must be an int"):
            KunnethModel(s3, value)
        with pytest.raises(ValueError, match="^rank must be an int"):
            char_subspace(s3, value)
        with pytest.raises(ValueError, match="^torus_rank must be an int"):
            LambdaFamily(value)
    theta = GradedLinearMap(-1, {1: [[1]]})
    with pytest.raises(ValueError, match="^torus_rank must be an int"):
        LambdaFamily(1.9, {(1.2,): theta})
    for subset in ((1.2,), (1, 2.0), (True,)):
        with pytest.raises(ValueError, match="^subset coordinate must be an int"):
            LambdaFamily(2, {subset: theta})
    with pytest.raises(ValueError, match="^shift must be an int"):
        GradedLinearMap(-1.5, {2.7: [[1]]})
    with pytest.raises(ValueError, match="^block degree must be an int"):
        GradedLinearMap(-1, {2.7: [[1]]})
    with pytest.raises(ValueError, match="^shift must be an int"):
        GradedLinearMap.from_images(s3, -3.0, {1: s3.basis_element(0)})
    assert prove_rigidity(s3, 3).failed_level == 3
    assert char_subspace(s3, 1).rank == 1


def test_class_h_implies_established_for_all_ranks():
    for alg in (projective_space(1), projective_space(3), sphere(4),
                tensor(projective_space(2), sphere(4))):
        assert check_class_h(alg).in_class
        for s in (0, 1, 2, 3, 5, 9):
            assert prove_rigidity(alg, s).established


def assert_matches_level_oracle(base):
    for s in range(base.top_degree + 2):
        assert prove_rigidity(base, s) == rigidity_by_levels(base, s), s


@pytest.mark.parametrize("name", corpus.names())
def test_prove_rigidity_matches_level_oracle_on_corpus(name):
    assert_matches_level_oracle(corpus.load(name))


@given(presentations())
@settings(max_examples=40, deadline=None)
def test_prove_rigidity_matches_level_oracle_on_random_presentations(p):
    base = build_monomial_algebra(p)
    if base.dim <= 12:
        assert_matches_level_oracle(base)


@given(presentations(), presentations())
@settings(max_examples=25, deadline=None)
def test_prove_rigidity_matches_level_oracle_on_tensor_products(p, q):
    a, b = build_monomial_algebra(p), build_monomial_algebra(q)
    if a.dim * b.dim <= 12:
        assert_matches_level_oracle(tensor(a, b))


def test_prove_rigidity_computes_one_space_per_level(space_calls):
    for base in (sphere(5), torus(2), projective_space(2)):
        for s in range(base.top_degree + 2):
            del space_calls[:]
            trace = prove_rigidity(base, s)
            solved = levels_with_unknowns(base)
            assert space_calls == [-rec.level for rec in trace.levels
                                   if rec.level in solved], (base, s)


def test_trace_from_full_sweep_equals_prove_rigidity():
    # one full class-H sweep serves every torus rank
    for base in (sphere(3), sphere(5), torus(2), projective_space(2)):
        verdict = check_class_h(base)
        for s in range(base.top_degree + 3):
            assert (ProofTrace.from_verdict(base, verdict, s)
                    == prove_rigidity(base, s)), (base, s)


def test_trace_from_verdict_rejects_a_short_sweep():
    s5 = sphere(5)
    verdict = check_class_h(s5, max_degree=2)
    assert ProofTrace.from_verdict(s5, verdict, 2).established
    with pytest.raises(ValueError, match="stops above level 3"):
        ProofTrace.from_verdict(s5, verdict, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        ProofTrace.from_verdict(s5, check_class_h(s5), -1)


def test_trace_from_verdict_caps_at_the_top_degree():
    # levels above the top degree are never read, so a full sweep of S^3
    # establishes rank 1 although it fails at degree -3
    s3 = sphere(3)
    verdict = check_class_h(s3)
    assert verdict.certificate[0] == -3
    trace = ProofTrace.from_verdict(s3, verdict, 1)
    assert trace.established and trace.level_cap == 1
    assert trace == prove_rigidity(s3, 1)
    assert ProofTrace.from_verdict(s3, verdict, 7).failed_level == 3


def _solve_level_by_residual(model, level):
    """Independent check of one induction step: assemble the linear system
    for the level-`level` components by evaluating multiplicativity
    residuals of single-entry families (all lower levels already zero), and
    return its kernel dimension.  Only residual entries on subsets of size
    `level` constrain this level; larger subsets belong to later steps."""
    base = model.base
    subsets = [s for s in model.nonempty_subsets if len(s) == level]
    unknowns = []
    for subset in subsets:
        for i in range(base.dim):
            for t in base.graded_piece(base.degrees[i] - level):
                unknowns.append((subset, i, t))
    rows = {}
    for column, (subset, i, t) in enumerate(unknowns):
        unit = GradedLinearMap.from_images(
            base, -level, {i: base.basis_element(t)})
        fam = LambdaFamily(model.torus_rank, {subset: unit})
        for violation in multiplicativity_residual(model, fam):
            if len(violation.subset) != level:
                continue
            for b, c in violation.defect.items():
                key = (violation.left, violation.right, violation.subset, b)
                rows.setdefault(key, [Fraction(0)] * len(unknowns))[column] += c
    matrix = [rows[k] for k in sorted(rows)]
    return len(nullspace_basis(matrix, ncols=len(unknowns))), len(subsets)


def test_induction_matches_residual_built_systems():
    # for established runs at torus rank <= 2 the unique level-by-level
    # solution is the trivial family
    for base in (projective_space(2), projective_space(3), sphere(2),
                 sphere(4), tensor(projective_space(1), projective_space(1))):
        for s in (1, 2):
            model = KunnethModel(base, s)
            trace = prove_rigidity(base, s)
            assert trace.established
            for rec in trace.levels:
                kernel_dim, subset_count = _solve_level_by_residual(model, rec.level)
                assert kernel_dim == rec.dimension * subset_count == 0
            solved = LambdaFamily(s)
            assert not solved.components
            assert multiplicativity_residual(model, solved) == []


def test_residual_system_sees_sphere_obstruction():
    # the same residual-built system reports the nontrivial space on S^3
    s3 = sphere(3)
    model = KunnethModel(s3, 3)
    kernel_dim, subset_count = _solve_level_by_residual(model, 3)
    assert subset_count == 1
    assert kernel_dim == 1 == len(derivation_space(s3, -3))



def test_rigidity_arguments_are_refused_in_these_exact_words():
    cp2, s3, s5 = projective_space(2), sphere(3), sphere(5)
    theta = GradedLinearMap(-1, {1: [[1]]})
    odd = GradedLinearMap.from_images(cp2, -2, {1: cp2.basis_element(0)})
    cases = [
        # the subsets that are not iterable used to raise a bare TypeError
        (lambda: LambdaFamily(2, {5: GradedLinearMap(-1)}),
         "a subset must be an iterable of torus coordinates, not 5"),
        (lambda: KunnethModel(s3, 2).total_index(0, 5),
         "a subset must be an iterable of torus coordinates, not 5"),
        (lambda: LambdaFamily(2, {(1,): theta}).component(5),
         "a subset must be an iterable of torus coordinates, not 5"),
        (lambda: LambdaFamily(2, {(1, 1): theta}), "repeated coordinate in subset (1, 1)"),
        (lambda: LambdaFamily(1, {(2,): theta}), "subset (2,) is not within 1..1"),
        (lambda: LambdaFamily(1, [1]),
         "components must be a mapping {subset: GradedLinearMap}, not [1]"),
        (lambda: LambdaFamily(1, {(): theta}), "the empty subset is implicitly the identity"),
        (lambda: LambdaFamily(1, {(1,): "x"}),
         "component at (1,) must be a GradedLinearMap, not str"),
        (lambda: LambdaFamily(1, {(1,): odd}),
         "component at (1,) has shift -2, which differs in parity from -1"),
        (lambda: char_subspace(cp2, 0), "rank must be at least 1"),
        (lambda: ProofTrace.from_verdict(s5, check_class_h(s5, max_degree=2), 3),
         "the sweep stops above level 3"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message

from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, identity, rref_kernel, torus
from negder import Element, linalg
from negder.derivations import leibniz_rows
from negder.linalg import (_fold, dot, echelon, mat_vec, nullspace_basis, rank_fraction_free,
                           rref)


def frac(p, q=1):
    return Fraction(p, q)


def dense_kernel(rows, ncols):
    """nullspace_basis(rows, ncols) as dense lists of ncols entries, once
    every vector is checked to hold only nonzero values in columns
    0..ncols-1, each held as _fold holds it."""
    basis = nullspace_basis(rows, ncols)
    for v in basis:
        assert all(type(c) is int and 0 <= c < ncols for c in v)
        assert all(x and type(x) is type(_fold(x)) for x in v.values())
    return dense(basis, ncols)


def test_rref_identity():
    m = identity(3)
    reduced, rank, pivots = rref(m)
    assert reduced == m
    assert rank == 3
    assert pivots == [0, 1, 2]


def test_rref_zero_matrix():
    m = [[0, 0], [0, 0]]
    reduced, rank, pivots = rref(m)
    assert reduced == [[0, 0], [0, 0]]
    assert rank == 0
    assert pivots == []


def test_rref_dependent_rows():
    reduced, rank, pivots = rref([[1, 2], [2, 4]])
    assert rank == 1
    assert pivots == [0]
    assert reduced == [[1, 2], [0, 0]]


def test_rref_does_not_mutate_input():
    m = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]]
    rref(m)
    assert m == [[2, 4], [1, 3]]


def test_rref_empty_shapes():
    assert rref([]) == ([], 0, [])
    reduced, rank, pivots = rref([[], []])
    assert (rank, pivots) == (0, [])


def test_nullspace_of_identity_is_empty():
    assert nullspace_basis(identity(4), 4) == []


def test_nullspace_single_relation():
    basis = nullspace_basis([[1, -1]], 2)
    assert basis == [{0: 1, 1: 1}]


def test_nullspace_zero_matrix_is_standard_basis():
    basis = nullspace_basis([[0, 0, 0], [0, 0, 0]], 3)
    assert basis == [{0: 1}, {1: 1}, {2: 1}]


def test_nullspace_no_rows_needs_ncols():
    assert nullspace_basis([], 2) == [{0: 1}, {1: 1}]


def test_nullspace_canonical_free_columns():
    # x0 = -2 x1 + x2, free columns 1 and 2
    basis = nullspace_basis([[1, 2, -1]], 3)
    assert basis == [{0: -2, 1: 1}, {0: 1, 2: 1}]


def test_fraction_free_rank_examples():
    assert rank_fraction_free([[1, 2], [2, 4]]) == 1
    assert rank_fraction_free(identity(5)) == 5
    assert rank_fraction_free([]) == 0
    assert rank_fraction_free([[frac(1, 2), frac(1, 3)], [frac(3, 2), frac(1)]]) == 1
    assert rank_fraction_free([[frac(1, 2), frac(1, 3)], [frac(3, 2), frac(2)]]) == 2


entries = st.fractions(min_value=-9, max_value=9, max_denominator=9)
matrices = st.tuples(st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda shape: st.lists(
        st.lists(entries, min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_rref_is_idempotent(m):
    reduced, rank, pivots = rref(m)
    again, rank2, pivots2 = rref(reduced)
    assert again == reduced
    assert (rank2, pivots2) == (rank, pivots)


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_rank_agrees_with_fraction_free_oracle(m):
    assert rref(m)[1] == rank_fraction_free(m)


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_nullspace_vectors_solve_the_system(m):
    ncols = len(m[0]) if m else 0
    basis = dense_kernel(m, ncols)
    assert len(basis) == ncols - rref(m)[1]
    for v in basis:
        assert all(x == 0 for x in mat_vec(m, v))


def test_pivot_columns_strictly_increase():
    m = [[0, 1, 3, 0], [0, 0, 0, 1], [0, 1, 3, 2]]
    _, rank, pivots = rref(m)
    assert pivots == sorted(set(pivots))
    assert rank == len(pivots)
    assert pivots == [1, 3]


def test_dot_is_exact():
    assert dot([frac(1, 3), frac(1, 6)], [1, 2]) == frac(2, 3)


# --- sparse elimination against the dense rref oracle ---

@st.composite
def padded_systems(draw):
    """A random matrix with zero rows and duplicate rows mixed in, some
    rows given as sparse {column: value} dicts."""
    m = draw(matrices)
    ncols = len(m[0]) if m else draw(st.integers(0, 6))
    rows = [list(row) for row in m]
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            dup = draw(st.sampled_from(rows))
            rows.insert(draw(st.integers(0, len(rows))), list(dup))
    as_dict = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    mixed = [{c: x for c, x in enumerate(row) if x} if d else row
             for row, d in zip(rows, as_dict)]
    return rows, mixed, ncols


@given(padded_systems())
@settings(max_examples=200, deadline=None)
def test_sparse_nullspace_equals_dense_rref_readout(system):
    rows, mixed, ncols = system
    expected = rref_kernel(rows, ncols)
    assert dense_kernel(mixed, ncols) == expected


def test_nullspace_skips_zero_and_duplicate_rows():
    rows = [{}, {0: 1, 2: -1}, [0, 0, 0], {2: -1, 0: 1}, [1, 0, -1]]
    assert nullspace_basis(rows, 3) == [{1: 1}, {0: 1, 2: 1}]


def test_nullspace_dict_rows_need_ncols():
    # the number of columns is always given, whatever form the rows take
    assert nullspace_basis([{0: 1}], 2) == [{1: 1}]
    with pytest.raises(TypeError):
        nullspace_basis([{0: 1}])


def test_nullspace_rows_from_an_iterator_need_ncols():
    # the rows may come from any iterable, read once
    for rows in ((row for row in [[1, 2]]), iter([[1, 2]]), [{0: 1, 1: 2}]):
        assert nullspace_basis(rows, 2) == [{0: -2, 1: 1}]
    assert nullspace_basis(iter([]), 2) == [{0: 1}, {1: 1}]


def test_read_only_mapping_rows_read_as_their_dicts():
    # a table entry that GradedAlgebra.products hands out is a
    # MappingProxyType: a mapping, never a dense list of its values
    rows = [{0: 1, 2: -1}, {1: 2, 2: Fraction(4, 2)}, {3: 0}]
    views = [MappingProxyType(row) for row in rows]
    assert [linalg._nonzero(v) for v in views] == [linalg._nonzero(r) for r in rows] == [
        {0: 1, 2: -1}, {1: 2, 2: 2}, {}]
    assert linalg.echelon(views) == linalg.echelon(rows) == {0: {0: 1, 2: -1},
                                                             1: {1: 1, 2: 1}}
    assert nullspace_basis(views, 4) == nullspace_basis(rows, 4)


def test_nullspace_rejects_entries_beyond_ncols():
    with pytest.raises(ValueError, match="outside columns"):
        nullspace_basis([{3: 1}], ncols=2)
    with pytest.raises(ValueError, match="outside columns"):
        nullspace_basis([{-1: 1}], ncols=2)


@pytest.mark.parametrize("call, message", [
    (lambda: nullspace_basis([[1.5]], 1), "a value must be an int or a Fraction, not 1.5"),
    (lambda: Element([1]), "a mapping {Element key: coefficient} is needed, not [1]"),
    (lambda: nullspace_basis([{2: 1}], 2), "a row has an entry outside columns 0..1"),
])
def test_a_linalg_error_names_what_it_refuses(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_nullspace_does_not_mutate_input():
    rows = [{0: 2, 1: 4}, [Fraction(1), Fraction(3)]]
    nullspace_basis(rows, ncols=2)
    assert rows == [{0: 2, 1: 4}, [1, 3]]


def test_echelon_is_pure_and_exact_on_int_rows():
    rows = [{0: 2, 1: 4}, {1: 3, 2: Fraction(1, 2)}, {0: 1, 2: 1}]
    pivots = linalg.echelon(rows)
    assert rows == [{0: 2, 1: 4}, {1: 3, 2: Fraction(1, 2)}, {0: 1, 2: 1}]
    assert pivots == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}
    assert all(type(x) is int for row in pivots.values() for x in row.values())
    # integral values come back as ints and the others as Fractions, and
    # no pivot row aliases an input
    rows = [{0: 2, 1: 1, 2: Fraction(4)}, {1: 3, 2: Fraction(1, 2)}]
    kept = [dict(row) for row in rows]
    pivots = linalg.echelon(rows)
    assert rows == kept and [type(row[2]) for row in rows] == [Fraction, Fraction]
    assert pivots == {0: {0: 1, 2: Fraction(23, 12)}, 1: {1: 1, 2: Fraction(1, 6)}}
    assert {c: [type(x) for x in row.values()] for c, row in pivots.items()} == {
        0: [int, Fraction], 1: [int, Fraction]}
    assert all(prow is not row for prow in pivots.values() for row in rows)
    single = [{3: Fraction(1)}]
    pivots = linalg.echelon(single)
    assert pivots == {3: {3: 1}} and type(pivots[3][3]) is int
    assert pivots[3] is not single[0] and type(single[0][3]) is Fraction


def test_nullspace_is_pure_and_exact_on_int_rows():
    for rows in ([[1, 2, 0], [2, 4, 0]], [{0: 1, 1: 2}, {0: 2, 1: 4}]):
        kept = [type(row)(row) for row in rows]
        basis = nullspace_basis(rows, 3)
        assert rows == kept
        assert all(type(x) is int for row in rows
                   for x in (row.values() if isinstance(row, dict) else row))
        assert basis == [{0: -2, 1: 1}, {2: 1}]
        assert all(type(x) is int for v in basis for x in v.values())
    [v] = nullspace_basis([[2, 1]], 2)
    assert v == {0: Fraction(-1, 2), 1: 1} and (type(v[0]), type(v[1])) == (Fraction, int)


def test_echelon_drops_explicit_zero_values():
    # a zero at the least column is no pivot, and an all-zero row is skipped
    rows = [{0: 0, 1: 1}]
    assert linalg.echelon(rows) == {1: {1: 1}}
    assert rows == [{0: 0, 1: 1}]
    assert linalg.echelon([{0: 1, 1: 1}, {0: 0}]) == {0: {0: 1, 1: 1}}


@pytest.mark.parametrize("zero", ["0", "0/5", Fraction(0)])
def test_a_value_that_folds_to_zero_is_no_pivot(zero):
    # the value is dropped after it is folded, so it is never kept as an
    # int 0 that would become a pivot and be divided by; a str zero is
    # text, which fileformats alone reads, and is rejected
    calls = [(lambda: linalg.echelon([{0: zero, 1: 1}]), {1: {1: 1}}),
             (lambda: linalg.echelon([[zero, 2]]), {1: {1: 1}}),
             (lambda: nullspace_basis([{0: zero, 1: 1}], 2), [{0: 1}]),
             (lambda: nullspace_basis([[zero, 1], [zero, zero]], 2), [{0: 1}])]
    for call, want in calls:
        if isinstance(zero, str):
            with pytest.raises(ValueError, match="must be an int or a Fraction"):
                call()
        else:
            assert call() == want


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_echelon_with_zeros_kept_equals_dense_rref(m):
    rows = [dict(enumerate(row)) for row in m]
    reduced, _, pivots = rref(m)
    assert linalg.echelon(rows) == {
        p: {c: x for c, x in enumerate(reduced[t]) if x} for t, p in enumerate(pivots)}


def test_a_cancelled_column_leaves_the_pivot_index():
    # The third row's pivot, column 2, cancels column 3 out of the first
    # row.  Column 3 then becomes a pivot, and the first row, which no
    # longer holds it, must not be visited.
    rows = [{0: 1, 2: 1, 3: 1}, {1: 1, 2: 1, 3: -1}, {2: 1, 3: 1}, {3: 1}]
    assert linalg.echelon(rows) == {c: {c: 1} for c in range(4)}
    assert nullspace_basis(rows, 4) == []
    assert nullspace_basis(rows[:3], 4) == [{1: 2, 2: -1, 3: 1}]


def test_nullspace_eliminates_once(monkeypatch):
    calls = []
    real = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate",
                        lambda rows, ncols: calls.append(1) or real(rows, ncols))
    # two systems that share no column, and the same kernel as dense rref
    rows = [[1, 1, 0, 0], [0, 0, 1, -1], [2, 2, 0, 0]]
    assert dense_kernel(rows, 4) == rref_kernel(rows, 4)
    assert calls == [1]


def test_nullspace_reads_no_row_after_full_rank():
    read = []

    def rows():
        for row in ([1, 1, 0], [0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 2], [2, 3, 1]):
            read.append(row)
            yield row

    assert nullspace_basis(rows(), 3) == []
    assert len(read) == 5
    # short of full rank every row is read, and the self-check sees it
    read.clear()
    assert nullspace_basis((r for r in rows() if r != [1, 0, 2]), 3) == [{0: 1, 1: -1, 2: 1}]
    assert len(read) == 6


def test_nullspace_copies_each_row_once(monkeypatch):
    # the elimination reduces the one copy that _nonzero makes, and the
    # self-check reads the frozen items of the distinct rows
    made = []
    real = linalg._nonzero
    monkeypatch.setattr(linalg, "_nonzero",
                        lambda row: made.append(row) or real(row))
    monkeypatch.setattr(linalg, "echelon", None)
    rows = [{0: 1, 1: 1}, [0, 1, 1], {1: 1, 0: 1}, [0, 0, 0]]
    assert nullspace_basis(rows, 3) == [{0: 1, 1: -1, 2: 1}]
    assert made == rows


def test_kernel_self_check_raises_on_a_wrong_elimination(monkeypatch):
    # with row subtraction disabled the pivot rows are wrong, and the
    # exact A.v = 0 check has to catch it
    monkeypatch.setattr(linalg, "_subtract", lambda row, f, other, skip: None)
    with pytest.raises(ArithmeticError, match="kernel vector"):
        nullspace_basis([[1, 1, 0], [0, 1, 1]], 3)


# --- integral values, and block-diagonal systems against dense rref ---

@st.composite
def block_systems(draw):
    """2 to 4 matrices on the diagonal of one dense system, with its
    columns permuted and the rows of the blocks interleaved."""
    blocks = draw(st.lists(matrices, min_size=2, max_size=4))
    widths = [len(m[0]) if m else draw(st.integers(0, 3)) for m in blocks]
    ncols = sum(widths)
    perm = draw(st.permutations(range(ncols)))
    queues = []
    offset = 0
    for m, width in zip(blocks, widths):
        queue = []
        for row in m:
            line = [Fraction(0)] * ncols
            for c, x in enumerate(row):
                line[perm[offset + c]] = x
            queue.append(line)
        queues.append(queue)
        offset += width
    rows = []
    while any(queues):
        rows.append(draw(st.sampled_from([q for q in queues if q])).pop(0))
    return rows, ncols


@given(block_systems())
@settings(max_examples=80, deadline=None)
def test_block_diagonal_nullspace_equals_dense_rref_readout(system):
    rows, ncols = system
    assert dense_kernel(rows, ncols) == rref_kernel(rows, ncols)


def test_equal_rows_in_any_form_are_one_int_row(monkeypatch):
    eliminated = []
    real = linalg._eliminate

    def spy(rows, ncols):
        rows = list(rows)
        eliminated.extend(dict(r) for r in rows)
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "_eliminate", spy)
    basis = nullspace_basis([[Fraction(4, 2), 1], {0: 2, 1: 1}], 2)
    assert basis == [{0: Fraction(-1, 2), 1: 1}]
    assert eliminated == [{0: 2, 1: 1}]
    assert all(type(x) is int for x in eliminated[0].values())


def test_integral_kernel_makes_no_fraction_on_the_way(monkeypatch):
    # Guard against Fraction arithmetic creeping back into the solver: on
    # the integral T5 degree -1 system no Fraction is made at all.
    t5 = torus(5)
    rows, unknowns = leibniz_rows(t5, -1, t5.generator_indices)
    made = []
    real = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        lambda cls, *args, **kw: made.append(cls) or real(cls, *args, **kw))
    basis = nullspace_basis(rows, len(unknowns))
    monkeypatch.undo()
    nonzero = sum(len(v) for v in basis)
    assert (len(basis), nonzero) == (5, 80)
    assert made == []


ROW_MESSAGE = "a row must be a mapping {column: value} or an iterable of values, not 5"


@pytest.mark.parametrize("call, message", [
    (lambda: nullspace_basis([5], 1), ROW_MESSAGE),
    (lambda: nullspace_basis(5, 1), "the system must be an iterable of rows, not 5"),
    (lambda: echelon([5]), ROW_MESSAGE),
    (lambda: echelon(5), "rows must be an iterable, not 5"),
], ids=["nullspace row", "nullspace system", "echelon row", "echelon rows"])
def test_a_system_of_the_wrong_shape_is_named(call, message):
    # each used to raise a bare TypeError
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
